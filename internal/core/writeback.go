package core

import (
	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// writeBack is one write through a translator that feeds the bank, the
// sibling of push.go's pushOp: the write goes to the file system first
// (persistence), then the covering aligned span is re-read and its blocks
// pushed, the old tail block is refreshed if the file grew past it, and the
// updated stat is pushed. Overlapping writes and the fixed block size are
// why the written buffer cannot be pushed directly (paper §4.3.2). Both
// translators run this one frame — SMCache on the brick, CMCache in
// client-populate mode — with every continuation of the sequence prebound,
// so a write allocates what the bank and the file system keep and nothing
// for its own bookkeeping.
//
// Lifetime: the frame returns to its pool when the sequence ends, before the
// last continuation runs. In Threaded mode the write completes — span closed,
// k run — as soon as the file system has the data, and the same frame, now
// detached from the writer, carries the read-back and pushes on a helper
// actor; it stays out of the pool until they finish, so the writer's next
// write (or close) on that descriptor never finds it.
type writeBack struct {
	w *writeBacks
	// t is the actor the sequence runs on: the writer's, then in Threaded
	// mode the helper's. sp and k are the writer's; nil once detached.
	t  *sim.Task
	sp *optrace.Span
	k  func(int64, error)

	fd      gluster.FD
	path    string
	tracked bool
	off, n  int64
	data    blob.Blob
	// oldSize is the pre-write size, -1 when unknown: it decides whether
	// this write grows the file past a partially-filled tail block, whose
	// cached copy would otherwise keep claiming end-of-file.
	oldSize                 int64
	alignedOff, alignedSize int64

	fnBefore, fnRestatted func(*gluster.Stat, error)
	fnWritten             func(int64, error)
	fnHelper              func(*sim.Task)
	fnBack, fnTail        func(blob.Blob, error)
	fnPushed, fnRestat    func()
	fnStatPushed          func(error)
}

// writeBacks is a translator's free list of writeBack frames plus what the
// sequence is parameterised by: the stack written to and read back from, the
// push frames (which carry the bank client, the block size and, for SMCache,
// the resident sets), and the stat-key table.
type writeBacks struct {
	child   gluster.TaskFS
	pushes  *pushPool
	statKey func(path string) string
	// spawn, set in Threaded mode, starts the read-back and pushes on a
	// helper actor of their own, off the write's critical path.
	spawn func(name string, body func(*sim.Task)) *sim.Task
	// stats, unless nil, counts the read-backs and stat pushes (SMCache).
	stats *SMCacheStats
	free  []*writeBack
}

// run performs one write under the translator's span sp. An untracked
// descriptor (or a CMCache not in client-populate mode) passes !tracked: the
// write is forwarded and nothing is fed to the bank.
func (w *writeBacks) run(t *sim.Task, sp *optrace.Span, fd gluster.FD, path string, tracked bool,
	off int64, data blob.Blob, k func(int64, error)) {
	var wb *writeBack
	if n := len(w.free); n > 0 {
		wb = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		wb = &writeBack{w: w}
		wb.fnBefore, wb.fnRestatted, wb.fnWritten, wb.fnHelper = wb.before, wb.restatted, wb.written, wb.helper
		wb.fnBack, wb.fnTail, wb.fnPushed, wb.fnRestat = wb.back, wb.tail, wb.pushed, wb.restat
		wb.fnStatPushed = wb.statPushed
	}
	wb.t, wb.sp, wb.k = t, sp, k
	wb.fd, wb.path, wb.tracked, wb.off, wb.data, wb.oldSize = fd, path, tracked, off, data, -1
	if tracked {
		w.child.StatT(t, path, wb.fnBefore)
		return
	}
	wb.write()
}

func (wb *writeBack) before(st *gluster.Stat, err error) {
	if err == nil {
		wb.oldSize = st.Size
	}
	wb.write()
}

func (wb *writeBack) write() { wb.w.child.WriteT(wb.t, wb.fd, wb.off, wb.data, wb.fnWritten) }

func (wb *writeBack) written(n int64, err error) {
	wb.n, wb.data = n, blob.Blob{}
	if err != nil || !wb.tracked || n == 0 {
		wb.finish(err)
		return
	}
	w := wb.w
	wb.alignedOff, wb.alignedSize = alignSpan(wb.off, n, w.pushes.bs)
	if w.spawn == nil {
		wb.readBack()
		return
	}
	t, sp, k := wb.t, wb.sp, wb.k
	wb.t, wb.sp, wb.k = nil, nil, nil
	w.spawn("smcache-write-push", wb.fnHelper)
	sp.End(t)
	k(n, nil)
}

func (wb *writeBack) helper(h *sim.Task) {
	wb.t = h
	wb.readBack()
}

func (wb *writeBack) readBack() {
	wb.w.child.ReadT(wb.t, wb.fd, wb.alignedOff, wb.alignedSize, wb.fnBack)
}

func (wb *writeBack) back(data blob.Blob, err error) {
	if err != nil {
		wb.finish(nil)
		return
	}
	if wb.w.stats != nil {
		wb.w.stats.ReadBacks++
	}
	wb.w.pushes.push(wb.t, wb.path, wb.alignedOff, data, wb.fnPushed)
}

// pushed refreshes the old tail block when the file grew past it, then
// moves on to the stat.
func (wb *writeBack) pushed() {
	oldSize, bs := wb.oldSize, wb.w.pushes.bs
	oldTail := oldSize - oldSize%bs
	if oldSize > 0 && oldSize%bs != 0 && wb.off+wb.n > oldSize && wb.alignedOff > oldTail {
		wb.w.child.ReadT(wb.t, wb.fd, oldTail, bs, wb.fnTail)
		return
	}
	wb.restat()
}

func (wb *writeBack) tail(data blob.Blob, err error) {
	if err != nil {
		wb.restat()
		return
	}
	bs := wb.w.pushes.bs
	wb.w.pushes.push(wb.t, wb.path, wb.oldSize-wb.oldSize%bs, data, wb.fnRestat)
}

func (wb *writeBack) restat() { wb.w.child.StatT(wb.t, wb.path, wb.fnRestatted) }

func (wb *writeBack) restatted(st *gluster.Stat, err error) {
	if err != nil {
		wb.finish(nil)
		return
	}
	w := wb.w
	w.pushes.mcd.SetT(wb.t, w.statKey(wb.path), encodeStat(st), wb.fnStatPushed)
}

func (wb *writeBack) statPushed(error) {
	if wb.w.stats != nil {
		wb.w.stats.StatPushes++
	}
	wb.finish(nil)
}

// finish recycles the frame and completes whoever it was running for: the
// writer (its span and k), or, detached, the helper actor.
func (wb *writeBack) finish(err error) {
	t, sp, k, n := wb.t, wb.sp, wb.k, wb.n
	wb.t, wb.sp, wb.k, wb.path, wb.data = nil, nil, nil, "", blob.Blob{}
	wb.w.free = append(wb.w.free, wb)
	if k == nil {
		t.End()
		return
	}
	sp.End(t)
	k(n, err)
}
