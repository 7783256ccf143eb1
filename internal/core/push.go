// The bank-feeding frames both translators share: pushOp (this file) stores
// one aligned span block by block; its sibling writeBack (writeback.go) is
// the whole write sequence that ends in such pushes.

package core

import (
	"cmp"
	"math/bits"
	"slices"

	"imca/internal/blob"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// blockSet is a set of block numbers — those one path has resident in the
// bank — as a bitmap in chunks of 512 blocks, sorted by chunk number and
// never empty: a block costs a bit, a sparse file its touched chunks, and
// the members come out in order with no sort.
type blockSet struct{ chunks []setChunk }

type setChunk struct {
	num  int64 // block number >> 9
	bits [8]uint64
}

// find returns the position of chunk num, or where it would be inserted.
func (b *blockSet) find(num int64) (int, bool) {
	return slices.BinarySearchFunc(b.chunks, num, func(c setChunk, num int64) int { return cmp.Compare(c.num, num) })
}

// add records block number bn.
func (b *blockSet) add(bn int64) {
	i, found := b.find(bn >> 9)
	if !found {
		b.chunks = slices.Insert(b.chunks, i, setChunk{num: bn >> 9})
	}
	b.chunks[i].bits[bn>>6&7] |= 1 << (bn & 63)
}

// remove forgets block number bn, if recorded.
func (b *blockSet) remove(bn int64) {
	if i, found := b.find(bn >> 9); found {
		c := &b.chunks[i]
		if c.bits[bn>>6&7] &^= 1 << (bn & 63); c.bits == [8]uint64{} {
			b.chunks = slices.Delete(b.chunks, i, i+1)
		}
	}
}

// has reports membership without disturbing the set.
func (b *blockSet) has(bn int64) bool {
	if b == nil {
		return false
	}
	i, found := b.find(bn >> 9)
	return found && b.chunks[i].bits[bn>>6&7]&(1<<(bn&63)) != 0
}

// take removes and returns the smallest member, if there is one.
func (b *blockSet) take() (bn int64, ok bool) {
	for len(b.chunks) > 0 {
		c := &b.chunks[0]
		for w, word := range c.bits {
			if word != 0 {
				c.bits[w] = word & (word - 1)
				return c.num<<9 | int64(w<<6|bits.TrailingZeros64(word)), true
			}
		}
		b.chunks = b.chunks[1:]
	}
	return 0, false
}

// pushOp is one block push: aligned data split into blocks and stored in
// the bank sequentially. It is the frame both translators' pushes run on —
// the block keys, the position, the completion continuation, and the store
// continuation prebound once — so a push allocates the one string its keys
// are cut from (the bank takes its entries from arenas) and nothing for its
// own bookkeeping. The op returns to its pool before k runs, so k may start
// the next push on it.
type pushOp struct {
	pool *pushPool
	t    *sim.Task
	bk   blockKeys // the keys of data's blocks, built once per push
	i    int       // the block being stored
	data blob.Blob
	k    func()
	// set, unless nil, records each block as it lands.
	set *blockSet

	fnStored func(error)
}

// pushPool is a translator's free list of push frames, bound to its bank
// client and block size. resident, unless nil, holds each path's set of
// blocks that may be in the bank, and landed counts the blocks recorded into
// them: SMCache's resident-block bookkeeping; CMCache keeps none.
type pushPool struct {
	mcd      *memcache.SimClient
	bs       int64
	resident map[string]*blockSet
	landed   *uint64
	free     []*pushOp
}

// push splits data (starting at the aligned offset base of path) into
// fixed-size blocks and stores each in the bank, one after another, each
// recorded as resident once it lands; then it runs k.
func (pp *pushPool) push(t *sim.Task, path string, base int64, data blob.Blob, k func()) {
	var set *blockSet
	if pp.resident != nil {
		if set = pp.resident[path]; set == nil {
			set = new(blockSet)
			pp.resident[path] = set
		}
	}
	var op *pushOp
	if n := len(pp.free); n > 0 {
		op = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
	} else {
		op = &pushOp{pool: pp}
		op.fnStored = op.stored
	}
	op.t, op.i, op.data, op.set, op.k = t, 0, data, set, k
	op.bk.build(path, base, data.Len(), pp.bs)
	op.bk.cut()
	op.step()
}

func (op *pushOp) step() {
	if op.i == len(op.bk.keys) {
		k := op.k
		op.t, op.data, op.set, op.k = nil, blob.Blob{}, nil, nil
		op.bk.drop()
		op.pool.free = append(op.pool.free, op)
		k()
		return
	}
	pos := int64(op.i) * op.pool.bs
	op.pool.mcd.SetT(op.t, op.bk.keys[op.i], op.data.Slice(pos, min(pos+op.pool.bs, op.data.Len())), op.fnStored)
}

func (op *pushOp) stored(error) {
	if op.set != nil {
		op.set.add(op.bk.offsets[op.i] / op.pool.bs)
		*op.pool.landed++
	}
	op.i++
	op.step()
}
