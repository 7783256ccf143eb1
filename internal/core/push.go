package core

import (
	"imca/internal/blob"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// pushOp is one block push: aligned data split into blocks and stored in
// the bank sequentially. It is the frame both translators' pushBlocksT run
// on — the position, the
// completion continuation, and the store continuation prebound once — so a
// push allocates what it stores (one key string per block; the bank makes
// the item) and nothing for its own bookkeeping. The op returns to its pool
// before k runs, so k may start the next push on it.
type pushOp struct {
	pool *pushPool
	t    *sim.Task
	path string
	base int64 // aligned file offset of data's first byte
	pos  int64
	bs   int64
	data blob.Blob
	k    func()
	// set is handed to the pool's landed hook with each block's offset.
	set map[int64]struct{}

	fnStored func(error)
}

// pushPool is a translator's free list of push frames, bound to its bank
// client. landed, when set, runs as each block lands: SMCache binds it once
// to its resident-block bookkeeping; CMCache keeps none and leaves it nil.
type pushPool struct {
	mcd    *memcache.SimClient
	landed func(set map[int64]struct{}, blockOff int64)
	free   []*pushOp
}

// push stores data (starting at the aligned offset base of path) block by
// block, then runs k.
func (pp *pushPool) push(t *sim.Task, path string, base int64, data blob.Blob, bs int64,
	set map[int64]struct{}, k func()) {
	var op *pushOp
	if n := len(pp.free); n > 0 {
		op = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
	} else {
		op = &pushOp{pool: pp}
		op.fnStored = op.stored
	}
	op.t, op.path, op.base, op.pos, op.bs, op.data, op.set, op.k = t, path, base, 0, bs, data, set, k
	op.step()
}

func (op *pushOp) step() {
	n := op.data.Len()
	if op.pos >= n {
		k := op.k
		op.t, op.path, op.data, op.set, op.k = nil, "", blob.Blob{}, nil, nil
		op.pool.free = append(op.pool.free, op)
		k()
		return
	}
	end := op.pos + op.bs
	if end > n {
		end = n
	}
	op.pool.mcd.SetT(op.t, blockKey(op.path, op.base+op.pos), op.data.Slice(op.pos, end), op.fnStored)
}

func (op *pushOp) stored(error) {
	if landed := op.pool.landed; landed != nil {
		landed(op.set, op.base+op.pos)
	}
	op.pos += op.bs
	op.step()
}
