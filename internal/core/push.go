// The bank-feeding frames both translators share: pushOp (this file) stores
// one aligned span block by block, or one stat structure, under the one
// freshness rule; its sibling writeBack (writeback.go) is the whole write
// sequence that ends in such pushes.

package core

import (
	"cmp"
	"math/bits"
	"slices"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// blockSet is a set of block numbers — those one path has resident in the
// bank — as a bitmap in chunks of 512 blocks, sorted by chunk number and
// never empty: a block costs a bit, a sparse file its touched chunks, and
// the members come out in order with no sort. inflight lists the blocks
// whose store is on its way, issued but not yet landed.
type blockSet struct {
	chunks   []setChunk
	inflight []int64
}

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

// pushOp is one push: aligned data split into blocks and stored in the bank
// sequentially, or one stat structure. It is the frame both translators'
// pushes run on — the keys, the position, the completion continuation, and
// the store continuation prebound once — so a push allocates nothing: its
// keys are lent to the bank, whose store copies them into its key pages and
// takes its entries from arenas. The op returns to its pool before k runs,
// so k may start the next push on it.
type pushOp struct {
	pool *pushPool
	t    *sim.Task
	bk   blockKeys // the keys of data's blocks, built once per push
	i    int       // the block being stored
	data blob.Blob
	// stat marks a stat push: data is the one value, stored under the one
	// key in bk.
	stat bool
	k    func()
	// set, unless nil, records each block as it lands.
	set *blockSet
	// path and stamp say whose applied count the data was read at, and ctr
	// is that path's record, nil until the path has one; see
	// pushPool.changes.
	path  string
	stamp uint64
	ctr   *changes

	fnStored  func(error)
	fnDeleted func(bool)
	fnFresh   func() bool
}

// changes counts the mutations applied to one path's file, by kind (a
// create needs no count: the unlink before it moved it).
type changes struct{ writes, truncates, unlinks uint64 }

// applied is the count a push is stamped with: data read from storage from
// now on reflects every mutation counted.
func (c changes) applied() uint64 { return c.writes + c.truncates + c.unlinks }

// cuts counts the mutations after which where the file ended says nothing
// of where it ends: a truncate moves the end anywhere, and an unlink leaves
// the path's open descriptors a file the path no longer names.
func (c changes) cuts() uint64 { return c.truncates + c.unlinks }

// pushPool is a translator's free list of push frames, bound to its bank
// client and block size. resident, unless nil, holds each
// path's set of blocks that may be in the bank: SMCache's resident-block
// bookkeeping; CMCache keeps none.
type pushPool struct {
	mcd      *memcache.SimClient
	bs       int64
	resident map[string]*blockSet
	// stats, unless nil (CMCache), counts the blocks recorded into resident
	// and the stats stored, and the write-backs' read-backs.
	stats *SMCacheStats
	// changes, unless nil (CMCache), is what has applied to each path's file,
	// kept by SMCache in both modes: the one record of it, which pushes are
	// judged by, opens read for unlinks and writes for what overtook them.
	// A path's record, once made, is never replaced, so a push holds it.
	changes map[string]*changes
	// judged, off in Threaded mode, stamps every push of blocks or of a stat
	// read back from storage with its path's applied count as its read
	// starts; the push deletes where it would store once the count has moved:
	// what it read may predate the mutation, and another client's push must
	// not land stale data after the mutation's own purge or push. Threaded
	// mode keeps its documented freshness window: a helper's pushes trail
	// the write they refresh by design, so they are not judged stale against
	// the writes that follow.
	judged bool
	// slab is where the pool's stat pushes cut their encodings from.
	slab statSlab
	free sim.Free[pushOp]
}

// changed returns path's record, made on first use, for a mutation to count
// itself as it applies.
func (pp *pushPool) changed(path string) *changes {
	c := pp.changes[path]
	if c == nil {
		c = new(changes)
		pp.changes[path] = c
	}
	return c
}

// seen returns what has applied to path so far.
func (pp *pushPool) seen(path string) changes {
	if c := pp.changes[path]; c != nil {
		return *c
	}
	return changes{}
}

// stamp returns path's applied count: data read from storage from now on
// reflects every mutation counted.
func (pp *pushPool) stamp(path string) uint64 { return pp.seen(path).applied() }

func (pp *pushPool) take() *pushOp {
	if op := pp.free.Pop(); op != nil {
		return op
	}
	op := &pushOp{pool: pp}
	op.fnStored, op.fnDeleted, op.fnFresh = op.stored, op.deleted, op.fresh
	return op
}

// push splits data (starting at the aligned offset base of path, read from
// storage at stamp) into fixed-size blocks and stores each in the bank, one
// after another, each recorded as resident once it lands; then it runs k. A
// block it reaches once the data is stale is deleted instead: an older copy
// must not outlive the mutation, and the mutation's own update has run or
// will.
func (pp *pushPool) push(t *sim.Task, path string, base int64, data blob.Blob, stamp uint64, k func()) {
	var set *blockSet
	if pp.resident != nil {
		if set = pp.resident[path]; set == nil {
			set = new(blockSet)
			pp.resident[path] = set
		}
	}
	op := pp.take()
	op.t, op.i, op.data, op.set, op.k, op.path, op.stamp = t, 0, data, set, k, path, stamp
	op.ctr = pp.changes[path]
	op.bk.build(path, base, data.Len(), pp.bs)
	op.step()
}

// pushStat stores st, path's stat structure read from storage at stamp,
// under the path's stat key by the rule push stores a block by — deleted
// instead once stale — then runs k.
func (pp *pushPool) pushStat(t *sim.Task, path string, st *gluster.Stat, stamp uint64, k func()) {
	op := pp.take()
	op.t, op.i, op.stat, op.k, op.path, op.stamp = t, 0, true, k, path, stamp
	op.ctr = pp.changes[path]
	op.bk.buf = appendStatKey(op.bk.buf[:0], path)
	op.bk.ends = append(op.bk.ends[:0], len(op.bk.buf))
	if op.fresh() {
		op.data = blob.FromBytes(pp.slab.encode(st)) // a stale push deletes and needs no value
	}
	op.step()
}

func (op *pushOp) step() {
	if op.i == len(op.bk.ends) {
		k := op.k
		op.t, op.data, op.stat, op.set, op.k, op.path, op.ctr = nil, blob.Blob{}, false, nil, nil, "", nil
		op.pool.free.Push(op)
		k()
		return
	}
	if !op.fresh() {
		op.pool.mcd.DeleteKeyT(op.t, op.bk.key(op.i), op.fnDeleted)
		return
	}
	value := op.data
	if !op.stat {
		if op.set != nil {
			op.set.inflight = append(op.set.inflight, op.bk.offsets[op.i]/op.pool.bs)
		}
		pos := int64(op.i) * op.pool.bs
		value = op.data.Slice(pos, min(pos+op.pool.bs, op.data.Len()))
	}
	op.pool.mcd.SetFreshT(op.t, op.bk.key(op.i), value, op.fnFresh, op.fnStored)
}

// fresh reports whether the data is still what the path's file holds.
func (op *pushOp) fresh() bool {
	if !op.pool.judged {
		return true
	}
	if op.ctr == nil {
		if op.ctr = op.pool.changes[op.path]; op.ctr == nil {
			return true // no mutation has applied yet
		}
	}
	return op.ctr.applied() == op.stamp
}

// deleted moves past a block deleted because the data had gone stale. The
// block stays recorded: a fresh push of it may be landing too.
func (op *pushOp) deleted(bool) {
	op.i++
	op.step()
}

func (op *pushOp) stored(error) {
	switch {
	case op.stat:
		if op.pool.stats != nil {
			op.pool.stats.StatPushes++
		}
	case op.set != nil:
		bn := op.bk.offsets[op.i] / op.pool.bs
		in := op.set.inflight
		i := slices.Index(in, bn)
		in[i] = in[len(in)-1]
		op.set.inflight = in[:len(in)-1]
		op.set.add(bn)
		op.pool.stats.BlockPushes++
	}
	op.i++
	op.step()
}
