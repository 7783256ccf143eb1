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
	// seen is what had applied to the path as the write started (SMCache),
	// then, once the write applied, as its read-back starts: every push of
	// the sequence is stamped with its applied count (see pushPool.judged).
	seen changes

	fnBefore, fnRestatted      func(*gluster.Stat, error)
	fnWritten                  func(int64, error)
	fnHelper                   func(*sim.Task)
	fnBack, fnTail             func(blob.Blob, error)
	fnPushed, fnRestat, fnDone func()
	fnPurged                   func(int)
}

// writeBacks is a translator's free list of writeBack frames plus what the
// sequence is parameterised by: the stack written to and read back from, and
// the push frames (which carry the bank client, the block size, the stat-key
// table and, for SMCache, the resident sets, the counters and the per-path
// record of mutations).
type writeBacks struct {
	child  gluster.TaskFS
	pushes *pushPool
	// purge, with pushes.judged (SMCache), clears a path's entries for a
	// write whose old end of file another mutation made unknown.
	purge func(t *sim.Task, path string, k func(n int))
	// spawn, set in Threaded mode, starts the read-back and pushes on a
	// helper actor of their own, off the write's critical path.
	spawn func(name string, body func(*sim.Task)) *sim.Task
	free  sim.Free[writeBack]
}

// run performs one write under the translator's span sp. An untracked
// descriptor (or a CMCache not in client-populate mode) passes !tracked: the
// write is forwarded and nothing is fed to the bank.
func (w *writeBacks) run(t *sim.Task, sp *optrace.Span, fd gluster.FD, path string, tracked bool,
	off int64, data blob.Blob, k func(int64, error)) {
	wb := w.free.Pop()
	if wb == nil {
		wb = &writeBack{w: w}
		wb.fnBefore, wb.fnRestatted, wb.fnWritten, wb.fnHelper = wb.before, wb.restatted, wb.written, wb.helper
		wb.fnBack, wb.fnTail, wb.fnPushed, wb.fnRestat = wb.back, wb.tail, wb.pushed, wb.restat
		wb.fnDone, wb.fnPurged = wb.done, wb.purged
	}
	wb.t, wb.sp, wb.k = t, sp, k
	wb.fd, wb.path, wb.tracked, wb.off, wb.data, wb.oldSize = fd, path, tracked, off, data, -1
	wb.seen = w.pushes.seen(path)
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
	if pp := w.pushes; pp.changes != nil {
		// The write applied as the storage returned.
		c := pp.changed(wb.path)
		overtaken := c.applied() != wb.seen.applied()
		c.writes++
		if pp.judged && overtaken && (c.cuts() != wb.seen.cuts() || wb.off+n > wb.oldSize) {
			// Another mutation applied since the write began, and where the
			// file ended just before it — the tail block a grown file must
			// refresh — is unknown: a truncate or unlink moved it, or the
			// write reaches past the end it saw (or saw none, -1), which
			// other writes may have moved. Purge the path instead of
			// pushing. Overtaken by writes alone and inside that end, the
			// write grew nothing.
			w.purge(wb.t, wb.path, wb.fnPurged)
			return
		}
		wb.seen = *c // the read-back reflects every mutation counted
	}
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
	if st := wb.w.pushes.stats; st != nil {
		st.ReadBacks++
	}
	wb.w.pushes.push(wb.t, wb.path, wb.alignedOff, data, wb.seen.applied(), wb.fnPushed)
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
	wb.w.pushes.push(wb.t, wb.path, wb.oldSize-wb.oldSize%bs, data, wb.seen.applied(), wb.fnRestat)
}

func (wb *writeBack) restat() { wb.w.child.StatT(wb.t, wb.path, wb.fnRestatted) }

func (wb *writeBack) restatted(st *gluster.Stat, err error) {
	if err != nil {
		wb.finish(nil)
		return
	}
	wb.w.pushes.pushStat(wb.t, wb.path, st, wb.seen.applied(), wb.fnDone)
}

// done ends a sequence whose stat push has run.
func (wb *writeBack) done() { wb.finish(nil) }

// purged ends the sequence of a write whose old end of file was unknown.
func (wb *writeBack) purged(int) { wb.finish(nil) }

// finish recycles the frame and completes whoever it was running for: the
// writer (its span and k), or, detached, the helper actor.
func (wb *writeBack) finish(err error) {
	t, sp, k, n := wb.t, wb.sp, wb.k, wb.n
	wb.t, wb.sp, wb.k, wb.path, wb.data = nil, nil, nil, "", blob.Blob{}
	wb.w.free.Push(wb)
	if k == nil {
		t.End()
		return
	}
	sp.End(t)
	k(n, err)
}
