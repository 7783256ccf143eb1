package core

import (
	"fmt"
	"slices"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SMCacheStats counts the server translator's cache maintenance work.
type SMCacheStats struct {
	// BlockPushes counts data blocks sent to the MCD bank; StatPushes
	// counts stat-structure updates; Purges counts keys deleted.
	BlockPushes uint64
	StatPushes  uint64
	Purges      uint64
	// ReadBacks counts the extra file-system reads issued after writes
	// to regenerate the covering aligned blocks.
	ReadBacks uint64
}

// SMCache is the server-side IMCa translator. It wraps the server's
// storage stack (its child, typically Posix) and mirrors completed
// operations into the MCD bank: stat structures at open/stat/write, data
// blocks after reads and writes. Open/close/delete purge the file's
// entries.
type SMCache struct {
	gluster.Blocking
	env   *sim.Env
	child gluster.TaskFS
	mcd   *memcache.SimClient
	cfg   Config

	fdPaths map[gluster.FD]string
	// pushed records which blocks each path may have in the MCD bank, so a
	// purge deletes those keys and no others: a block is recorded when its
	// set lands and forgotten when a purge issues its delete. A path's set is
	// never replaced or dropped — an in-flight push holds it.
	pushed map[string]*blockSet
	// skeys interns stat keys for the push/purge paths; shared with the
	// deployment's CMCaches via ShareStatKeys.
	skeys *KeyInterner
	// readOps, pushes and writes pool the per-read, per-push and per-write
	// frames (see smReadOp, pushOp, writeBack).
	readOps []*smReadOp
	pushes  pushPool
	writes  writeBacks

	Stats SMCacheStats
}

var _ gluster.TaskFS = (*SMCache)(nil)

// NewSMCache wraps child with the server translator. mcd must be a client
// on the server's own node — its traffic models the extra server-side load
// the paper attributes to IMCa.
func NewSMCache(env *sim.Env, child gluster.FS, mcd *memcache.SimClient, cfg Config) *SMCache {
	// The translator runs on the brick daemon's request task and on helper
	// tasks of its own, so the storage stack must be continuation-style.
	tfs := gluster.AsTaskFS(child)
	if tfs == nil {
		panic(fmt.Sprintf("core: NewSMCache: child %T is not task-ready", child))
	}
	s := &SMCache{
		env:     env,
		child:   tfs,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		pushed:  make(map[string]*blockSet),
	}
	s.pushes = pushPool{mcd: mcd, bs: cfg.blockSize(), statKey: s.statKey, resident: s.pushed, stats: &s.Stats,
		changes: make(map[string]*changes), judged: !cfg.Threaded}
	s.writes = writeBacks{child: s.child, pushes: &s.pushes, purge: s.purgeAllT}
	if cfg.Threaded {
		s.writes.spawn = env.StartTask
	}
	s.T = s
	return s
}

// TaskReady implements gluster.TaskFS: NewSMCache accepts only a task-ready
// storage stack, and the MCD bank client always is.
func (s *SMCache) TaskReady() bool { return true }

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (s *SMCache) ShareStatKeys(in *KeyInterner) { s.skeys = in }

// statKey returns the interned "<path>:stat" key. A translator nobody gave
// a shared table builds a private one on first use.
func (s *SMCache) statKey(path string) string {
	if s.skeys == nil {
		s.skeys = NewKeyInterner()
	}
	return s.skeys.get(path)
}

// Bank returns the MCD bank client (for stats inspection).
func (s *SMCache) Bank() *memcache.SimClient { return s.mcd }

// Recorded reports whether the data block at aligned offset blockOff of
// path is recorded as possibly in the bank — what a later purge of path
// will delete. Like Store.Keys it is an audit surface and changes nothing.
func (s *SMCache) Recorded(path string, blockOff int64) bool {
	return s.pushed[path].has(blockOff / s.cfg.blockSize())
}

// setPurged annotates a span with the number of purged keys.
func setPurged(sp *optrace.Span, n int) {
	if n > 0 {
		sp.SetAttrInt("purged", int64(n))
	}
}

// purgeDataT deletes the data blocks recorded for path as it starts, in
// block order, and hands k how many keys it removed; one a concurrent push
// lands meanwhile stays recorded for the next purge. The stat entry stays
// valid (open/close do not change file contents' metadata beyond what the
// fresh stat push provides). A purge for a change of contents (inflight)
// deletes the blocks whose store is on its way too: each delete follows its
// store to the daemon, and what was read before the change must not stay.
func (s *SMCache) purgeDataT(t *sim.Task, path string, inflight bool, k func(n int)) {
	set, bs, n := s.pushed[path], s.cfg.blockSize(), 0
	var todo blockSet
	if set != nil {
		todo.chunks = slices.Clone(set.chunks)
		if inflight {
			for _, bn := range set.inflight {
				todo.add(bn)
			}
		}
	}
	var step func(bool)
	step = func(bool) {
		bn, ok := todo.take()
		if !ok {
			k(n)
			return
		}
		n++
		s.Stats.Purges++
		set.remove(bn)
		s.mcd.DeleteT(t, blockKey(path, bn*bs), step)
	}
	step(false)
}

// purgeAllT additionally removes the stat entry and blocks on their way —
// used for deletes, truncates and writes whose old end of file another
// mutation made unknown, where a stale stat would be a false positive.
func (s *SMCache) purgeAllT(t *sim.Task, path string, k func(n int)) {
	s.Stats.Purges++
	s.mcd.DeleteT(t, s.statKey(path), func(bool) {
		s.purgeDataT(t, path, true, func(n int) { k(1 + n) })
	})
}

// deferIfT runs the bank update fn and then k. In Threaded mode the update
// runs on a helper actor of its own (removing it from the request's
// critical path) and k continues immediately; otherwise it runs inline on
// the request's task before k.
func (s *SMCache) deferIfT(t *sim.Task, name string, fn func(t *sim.Task, k func()), k func()) {
	if !s.cfg.Threaded {
		fn(t, k)
		return
	}
	s.env.StartTask(name, func(h *sim.Task) { fn(h, h.End) })
	k()
}

// opened is the completion CreateT and OpenT share: record the descriptor
// (unless the path was unlinked since the storage opened it), purge the
// MCDs of data for the file (a re-created or re-opened path must not serve
// stale blocks), then push the fresh stat structure (paper §4.3.2 and
// §4.2).
func (s *SMCache) opened(t *sim.Task, sp *optrace.Span, path string, k func(gluster.FD, error)) func(gluster.FD, error) {
	unlinks := s.pushes.seen(path).unlinks
	return func(fd gluster.FD, err error) {
		if err != nil {
			sp.End(t)
			k(fd, err)
			return
		}
		if s.pushes.seen(path).unlinks == unlinks {
			s.fdPaths[fd] = path
		}
		s.purgeDataT(t, path, false, func(n int) {
			setPurged(sp, n)
			stamp := s.pushes.stamp(path)
			s.child.StatT(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(fd, nil)
					return
				}
				s.pushes.pushStat(t, path, st, stamp, func() {
					sp.End(t)
					k(fd, nil)
				})
			})
		})
	}
}

// CreateT implements gluster.TaskFS.
func (s *SMCache) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "create")
	s.child.CreateT(t, path, s.opened(t, sp, path, k))
}

// OpenT implements gluster.TaskFS.
func (s *SMCache) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "open")
	s.child.OpenT(t, path, s.opened(t, sp, path, k))
}

// CloseT implements gluster.TaskFS: SMCache discards the file's data (not
// its stat entry) from the MCDs when the close arrives.
func (s *SMCache) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "close")
	path, ok := s.fdPaths[fd]
	if !ok {
		s.child.CloseT(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
		return
	}
	s.purgeDataT(t, path, false, func(n int) {
		setPurged(sp, n)
		delete(s.fdPaths, fd)
		s.child.CloseT(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// smReadOp is ReadT's pooled per-operation frame; see CMCache's readOp. The
// aligned data rides in the op from the storage read to the slice-out
// after the push. Only Threaded mode still builds a closure — the helper
// task's body, which outlives the op and must own its captures.
type smReadOp struct {
	s          *SMCache
	t          *sim.Task
	path       string
	off, size  int64
	alignedOff int64
	stamp      uint64 // the path's applied count as the storage read started
	data       blob.Blob
	k          func(blob.Blob, error)
	sp         *optrace.Span

	fnDone    func(blob.Blob, error)
	fnAligned func(blob.Blob, error)
	fnPush    func(t *sim.Task, k func())
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

// ReadT implements gluster.TaskFS. The read is widened to block alignment
// so the completed data can be fed to the MCDs as whole blocks; the
// client's requested range is sliced out of the aligned result.
func (s *SMCache) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	op := s.takeReadOp()
	op.t, op.off, op.size, op.k = t, off, size, k
	op.sp = optrace.StartSpan(t, optrace.LayerSMCache, "read")
	path, tracked := s.fdPaths[fd]
	if !tracked || size <= 0 {
		s.child.ReadT(t, fd, off, size, op.fnDone)
		return
	}
	alignedOff, alignedSize := alignSpan(off, size, s.cfg.blockSize())
	op.path, op.alignedOff, op.stamp = path, alignedOff, s.pushes.stamp(path)
	s.child.ReadT(t, fd, alignedOff, alignedSize, op.fnAligned)
}

// aligned receives the widened storage read and feeds its blocks to the
// bank — inline, or on a helper task in Threaded mode.
func (op *smReadOp) aligned(data blob.Blob, err error) {
	if err != nil {
		op.done(blob.Blob{}, err)
		return
	}
	s := op.s
	op.data = data
	push := op.fnPush
	if s.cfg.Threaded {
		path, alignedOff, stamp := op.path, op.alignedOff, op.stamp
		push = func(h *sim.Task, k func()) { s.pushes.push(h, path, alignedOff, data, stamp, k) }
	}
	s.deferIfT(op.t, "smcache-read-push", push, op.fnPushed)
}

// push is the inline form of aligned's bank update.
func (op *smReadOp) push(t *sim.Task, k func()) {
	op.s.pushes.push(t, op.path, op.alignedOff, op.data, op.stamp, k)
}

// pushed slices the caller's range out of the aligned read.
func (op *smReadOp) pushed() {
	op.done(cutRange(op.data, op.alignedOff, op.off, op.size), nil)
}

// WriteT implements gluster.TaskFS: the write, then the read-back and the
// block and stat pushes, on the shared writeBack frame. In Threaded mode the
// read-back and pushes leave the critical path.
func (s *SMCache) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "write")
	path, tracked := s.fdPaths[fd]
	s.writes.run(t, sp, fd, path, tracked, off, data, k)
}

// StatT implements gluster.TaskFS, feeding the completed stat structure to
// the MCDs so later client stats hit the cache.
func (s *SMCache) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "stat")
	stamp := s.pushes.stamp(path)
	s.child.StatT(t, path, func(st *gluster.Stat, err error) {
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
		own := *st // st is lent; the push and k outlive this continuation
		st = &own
		s.deferIfT(t, "smcache-stat-push",
			func(h *sim.Task, k2 func()) { s.pushes.pushStat(h, path, st, stamp, k2) },
			func() {
				sp.End(t)
				k(st, nil)
			})
	})
}

// MkdirT implements gluster.TaskFS: forwarded without interception.
func (s *SMCache) MkdirT(t *sim.Task, path string, k func(error)) {
	s.child.MkdirT(t, path, k)
}

// ReaddirT implements gluster.TaskFS: forwarded without interception.
func (s *SMCache) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	s.child.ReaddirT(t, path, k)
}

// TruncateT implements gluster.TaskFS, purging cached blocks that may now
// lie past end of file.
func (s *SMCache) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "truncate")
	s.pushes.changed(path).truncates++ // the storage truncates as the call arrives
	s.child.TruncateT(t, path, size, func(err error) {
		if err != nil {
			sp.End(t)
			k(err)
			return
		}
		s.purgeAllT(t, path, func(n int) {
			setPurged(sp, n)
			stamp := s.pushes.stamp(path)
			s.child.StatT(t, path, func(st *gluster.Stat, serr error) {
				if serr != nil {
					sp.End(t)
					k(nil)
					return
				}
				s.pushes.pushStat(t, path, st, stamp, func() {
					sp.End(t)
					k(nil)
				})
			})
		})
	})
}

// UnlinkT implements gluster.TaskFS: the file's cache entries are removed
// so clients cannot see false positives for a deleted file (paper §4.2).
func (s *SMCache) UnlinkT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerSMCache, "unlink")
	// The storage unlinks as the call arrives. The descriptors open on the
	// path keep the file they name, which is no longer the path's: what is
	// read or written through them is not the path's to push or purge.
	s.pushes.changed(path).unlinks++
	for fd, p := range s.fdPaths {
		if p == path {
			delete(s.fdPaths, fd)
		}
	}
	s.child.UnlinkT(t, path, func(err error) {
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
