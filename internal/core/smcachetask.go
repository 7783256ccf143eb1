package core

import (
	"sort"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// Continuation-engine (gluster.TaskFS) implementation of SMCache, the
// server-side translator. Each *T operation mirrors its blocking sibling —
// same bank traffic in the same order, same purge ordering, same stats and
// span annotations — so a task-native brick daemon replays the blocking
// daemon's event stream. Threaded mode is unchanged: helper updates still
// run as their own processes, off the request's critical path, in both
// engines.

var _ gluster.DirTaskFS = (*SMCache)(nil)

// TaskReady implements gluster.TaskFS. The translator's only task-context
// caller is the task-native daemon, which needs the full DirTaskFS
// surface, so readiness requires the whole child stack to provide it (the
// MCD bank client always is task-capable).
func (s *SMCache) TaskReady() bool {
	return gluster.AsDirTaskFS(s.child) != nil
}

// childT returns the child as a TaskFS; callers only reach here when
// TaskReady reported true.
func (s *SMCache) childT() gluster.TaskFS { return s.child.(gluster.TaskFS) }

// purgeDataT is purgeData for tasks: delete the recorded data blocks in
// sorted order, then hand the count to k.
func (s *SMCache) purgeDataT(t *sim.Task, path string, k func(n int)) {
	blocks := make([]int64, 0, len(s.pushed[path]))
	for bo := range s.pushed[path] {
		blocks = append(blocks, bo)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	var step func(i int)
	step = func(i int) {
		if i == len(blocks) {
			delete(s.pushed, path)
			k(len(blocks))
			return
		}
		s.Stats.Purges++
		s.mcd.DeleteT(t, blockKey(path, blocks[i]), func(bool) { step(i + 1) })
	}
	step(0)
}

// purgeAllT additionally removes the stat entry; see purgeAll.
func (s *SMCache) purgeAllT(t *sim.Task, path string, k func(n int)) {
	s.Stats.Purges++
	s.mcd.DeleteT(t, s.skeys.get(path), func(bool) {
		s.purgeDataT(t, path, func(n int) { k(1 + n) })
	})
}

// pushStatT is pushStat for tasks.
func (s *SMCache) pushStatT(t *sim.Task, st *gluster.Stat, k func()) {
	s.mcd.SetT(t, s.skeys.get(st.Path), encodeStat(st), func(error) {
		s.Stats.StatPushes++
		k()
	})
}

// pushBlocksT is pushBlocks for tasks: the blocks store sequentially, as
// the blocking loop does, each recorded as resident once it lands.
func (s *SMCache) pushBlocksT(t *sim.Task, path string, alignedOff int64, data blob.Blob, k func()) {
	set := s.pushed[path]
	if set == nil {
		set = make(map[int64]struct{})
		s.pushed[path] = set
	}
	s.pushes.push(t, path, alignedOff, data, s.cfg.blockSize(), set, k)
}

// blockLanded is the push pool's per-block hook: the block is resident.
func (s *SMCache) blockLanded(set map[int64]struct{}, blockOff int64) {
	set[blockOff] = struct{}{}
	s.Stats.BlockPushes++
}

// deferIfT is deferIf for tasks. Threaded mode spawns the same helper
// process the blocking engine does (fn, blocking) and continues
// immediately; inline mode drives the task-native chain (inline) on the
// request's critical path before continuing. fn is read in Threaded mode
// only, so a pooled caller builds it only then.
func (s *SMCache) deferIfT(t *sim.Task, name string, fn func(q *sim.Proc), inline func(k func()), k func()) {
	if s.cfg.Threaded {
		s.env.Process(name, fn)
		k()
		return
	}
	inline(k)
}

// CreateT implements gluster.TaskFS; see Create.
func (s *SMCache) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "create")
	s.childT().CreateT(t, path, func(fd gluster.FD, err error) {
		if err != nil {
			sp.End(t)
			k(fd, err)
			return
		}
		s.fdPaths[fd] = path
		s.purgeDataT(t, path, func(n int) { // a re-created path must not serve stale blocks
			setPurged(sp, n)
			s.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(fd, nil)
					return
				}
				s.pushStatT(t, st, func() {
					sp.End(t)
					k(fd, nil)
				})
			})
		})
	})
}

// OpenT implements gluster.TaskFS; see Open.
func (s *SMCache) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "open")
	s.childT().OpenT(t, path, func(fd gluster.FD, err error) {
		if err != nil {
			sp.End(t)
			k(fd, err)
			return
		}
		s.fdPaths[fd] = path
		s.purgeDataT(t, path, func(n int) {
			setPurged(sp, n)
			s.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(fd, nil)
					return
				}
				s.pushStatT(t, st, func() {
					sp.End(t)
					k(fd, nil)
				})
			})
		})
	})
}

// CloseT implements gluster.TaskFS; see Close.
func (s *SMCache) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "close")
	path, ok := s.fdPaths[fd]
	if !ok {
		s.childT().CloseT(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
		return
	}
	s.purgeDataT(t, path, func(n int) {
		setPurged(sp, n)
		delete(s.fdPaths, fd)
		s.childT().CloseT(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// smReadOp is ReadT's pooled per-operation frame; see CMCache's readOp. The
// aligned data rides in the op from the storage read to the slice-out
// after the push. Only Threaded mode still builds a closure — the helper
// process's body, which outlives the op and must own its captures.
type smReadOp struct {
	s          *SMCache
	t          *sim.Task
	path       string
	off, size  int64
	alignedOff int64
	data       blob.Blob
	k          func(blob.Blob, error)
	sp         *optrace.Span

	fnDone    func(blob.Blob, error)
	fnAligned func(blob.Blob, error)
	fnPush    func(k func())
	fnPushed  func()
}

func (s *SMCache) takeReadOp() *smReadOp {
	if n := len(s.readOps); n > 0 {
		op := s.readOps[n-1]
		s.readOps[n-1] = nil
		s.readOps = s.readOps[:n-1]
		return op
	}
	op := &smReadOp{s: s}
	op.fnDone = op.done
	op.fnAligned = op.aligned
	op.fnPush = op.push
	op.fnPushed = op.pushed
	return op
}

// done closes the span, recycles the op, and delivers the result.
func (op *smReadOp) done(data blob.Blob, err error) {
	t, k := op.t, op.k
	op.sp.End(t)
	op.t, op.k, op.sp = nil, nil, nil
	op.path, op.data = "", blob.Blob{}
	op.s.readOps = append(op.s.readOps, op)
	k(data, err)
}

// ReadT implements gluster.TaskFS; see Read.
func (s *SMCache) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	op := s.takeReadOp()
	op.t, op.off, op.size, op.k = t, off, size, k
	op.sp = optrace.StartSpan(t, optrace.LayerSMCache, "read")
	path, tracked := s.fdPaths[fd]
	if !tracked || size <= 0 {
		s.childT().ReadT(t, fd, off, size, op.fnDone)
		return
	}
	alignedOff, alignedSize := alignSpan(off, size, s.cfg.blockSize())
	op.path, op.alignedOff = path, alignedOff
	s.childT().ReadT(t, fd, alignedOff, alignedSize, op.fnAligned)
}

// aligned receives the widened storage read and feeds its blocks to the
// bank — inline, or on a helper process in Threaded mode.
func (op *smReadOp) aligned(data blob.Blob, err error) {
	if err != nil {
		op.done(blob.Blob{}, err)
		return
	}
	s := op.s
	op.data = data
	var helper func(q *sim.Proc)
	if s.cfg.Threaded {
		path, alignedOff := op.path, op.alignedOff
		helper = func(q *sim.Proc) { s.pushBlocks(q, path, alignedOff, data) }
	}
	s.deferIfT(op.t, "smcache-read-push", helper, op.fnPush, op.fnPushed)
}

// push is the inline side of aligned's deferred push.
func (op *smReadOp) push(k func()) {
	op.s.pushBlocksT(op.t, op.path, op.alignedOff, op.data, k)
}

// pushed slices the caller's range out of the aligned read.
func (op *smReadOp) pushed() {
	op.done(cutRange(op.data, op.alignedOff, op.off, op.size), nil)
}

// WriteT implements gluster.TaskFS; see Write.
func (s *SMCache) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "write")
	path, tracked := s.fdPaths[fd]
	statBefore := func(k2 func(oldSize int64)) {
		// The pre-write size decides whether this write grows the file
		// past a partially-filled tail block; see Write.
		if !tracked {
			k2(-1)
			return
		}
		s.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
			if serr == nil {
				k2(st.Size)
				return
			}
			k2(-1)
		})
	}
	statBefore(func(oldSize int64) {
		s.childT().WriteT(t, fd, off, data, func(n int64, err error) {
			if err != nil || !tracked || n == 0 {
				sp.End(t)
				k(n, err)
				return
			}
			bs := s.cfg.blockSize()
			alignedOff, alignedSize := alignSpan(off, n, bs)
			s.deferIfT(t, "smcache-write-push",
				func(q *sim.Proc) { s.writeBack(q, fd, path, alignedOff, alignedSize, oldSize, off, n, bs) },
				func(k2 func()) { s.writeBackT(t, fd, path, alignedOff, alignedSize, oldSize, off, n, bs, k2) },
				func() {
					sp.End(t)
					k(n, nil)
				})
		})
	})
}

// writeBack is the blocking body of Write's deferred read-back-and-push;
// factored out so WriteT's Threaded mode can spawn the identical helper.
func (s *SMCache) writeBack(q *sim.Proc, fd gluster.FD, path string, alignedOff, alignedSize, oldSize, off, n, bs int64) {
	back, rerr := s.child.Read(q, fd, alignedOff, alignedSize)
	if rerr != nil {
		return
	}
	s.Stats.ReadBacks++
	s.pushBlocks(q, path, alignedOff, back)
	if oldTail := oldSize - oldSize%bs; oldSize > 0 && oldSize%bs != 0 &&
		off+n > oldSize && alignedOff > oldTail {
		if tb, terr := s.child.Read(q, fd, oldTail, bs); terr == nil {
			s.pushBlocks(q, path, oldTail, tb)
		}
	}
	if st, serr := s.child.Stat(q, path); serr == nil {
		s.pushStat(q, st)
	}
}

// writeBackT is writeBack for tasks, step for step.
func (s *SMCache) writeBackT(t *sim.Task, fd gluster.FD, path string, alignedOff, alignedSize, oldSize, off, n, bs int64, k func()) {
	s.childT().ReadT(t, fd, alignedOff, alignedSize, func(back blob.Blob, rerr error) {
		if rerr != nil {
			k()
			return
		}
		s.Stats.ReadBacks++
		s.pushBlocksT(t, path, alignedOff, back, func() {
			refreshTail := func(k2 func()) {
				oldTail := oldSize - oldSize%bs
				if !(oldSize > 0 && oldSize%bs != 0 && off+n > oldSize && alignedOff > oldTail) {
					k2()
					return
				}
				s.childT().ReadT(t, fd, oldTail, bs, func(tb blob.Blob, terr error) {
					if terr != nil {
						k2()
						return
					}
					s.pushBlocksT(t, path, oldTail, tb, k2)
				})
			}
			refreshTail(func() {
				s.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
					if serr != nil {
						k()
						return
					}
					s.pushStatT(t, st, k)
				})
			})
		})
	})
}

// StatT implements gluster.TaskFS; see Stat.
func (s *SMCache) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "stat")
	s.childT().StatT(t, path, func(st *gluster.Stat, err error) {
		if err != nil {
			sp.End(t)
			k(nil, err)
			return
		}
		if st.IsDir {
			sp.End(t)
			k(st, nil)
			return
		}
		s.deferIfT(t, "smcache-stat-push",
			func(q *sim.Proc) { s.pushStat(q, st) },
			func(k2 func()) { s.pushStatT(t, st, k2) },
			func() {
				sp.End(t)
				k(st, nil)
			})
	})
}

// childDirT returns the child as a DirTaskFS; callers only reach here when
// the daemon registered task-natively, which requires the full surface.
func (s *SMCache) childDirT() gluster.DirTaskFS { return s.child.(gluster.DirTaskFS) }

// MkdirT is Mkdir for tasks: forwarded without interception.
func (s *SMCache) MkdirT(t *sim.Task, path string, k func(error)) {
	s.childDirT().MkdirT(t, path, k)
}

// ReaddirT is Readdir for tasks: forwarded without interception.
func (s *SMCache) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	s.childDirT().ReaddirT(t, path, k)
}

// TruncateT is Truncate for tasks; see Truncate.
func (s *SMCache) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "truncate")
	s.childDirT().TruncateT(t, path, size, func(err error) {
		if err != nil {
			sp.End(t)
			k(err)
			return
		}
		s.purgeAllT(t, path, func(n int) {
			setPurged(sp, n)
			s.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(nil)
					return
				}
				s.pushStatT(t, st, func() {
					sp.End(t)
					k(nil)
				})
			})
		})
	})
}

// UnlinkT implements gluster.TaskFS; see Unlink.
func (s *SMCache) UnlinkT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "unlink")
	s.childT().UnlinkT(t, path, func(err error) {
		if err != nil {
			sp.End(t)
			k(err)
			return
		}
		s.purgeAllT(t, path, func(n int) {
			setPurged(sp, n)
			sp.End(t)
			k(nil)
		})
	})
}
