package core

import (
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
	// metaOps, readOps, statOps, pushes and writes pool the frames of the
	// namespace verbs and purges, reads, stats, pushes and writes (see
	// metaOp, smReadOp, smStatOp, pushOp, writeBack).
	metaOps sim.Free[metaOp]
	readOps sim.Free[smReadOp]
	statOps sim.Free[smStatOp]
	pushes  pushPool
	writes  writeBacks

	Stats SMCacheStats
}

var _ gluster.TaskFS = (*SMCache)(nil)

// NewSMCache wraps child with the server translator. mcd must be a client
// on the server's own node — its traffic models the extra server-side load
// the paper attributes to IMCa. It panics on a block size CheckBlockSize
// refuses.
func NewSMCache(env *sim.Env, child gluster.TaskFS, mcd *memcache.SimClient, cfg Config) *SMCache {
	if err := CheckBlockSize(cfg.BlockSize); err != nil {
		panic(err)
	}
	s := &SMCache{
		env:     env,
		child:   child,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		pushed:  make(map[string]*blockSet),
	}
	s.pushes = pushPool{mcd: mcd, bs: cfg.BlockSize, resident: s.pushed, stats: &s.Stats,
		changes: make(map[string]*changes), judged: !cfg.Threaded}
	s.writes = writeBacks{child: s.child, pushes: &s.pushes, purge: s.purgeAllT}
	if cfg.Threaded {
		s.writes.spawn = env.StartTask
	}
	s.Blocking = gluster.NewBlocking(s)
	return s
}

// Bank returns the MCD bank client (for stats inspection).
func (s *SMCache) Bank() *memcache.SimClient { return s.mcd }

// Recorded reports whether the data block at aligned offset blockOff of
// path is recorded as possibly in the bank — what a later purge of path
// will delete. Like Store.Keys it is an audit surface and changes nothing.
func (s *SMCache) Recorded(path string, blockOff int64) bool {
	return s.pushed[path].has(blockOff / s.cfg.BlockSize)
}

// setPurged annotates a span with the number of purged keys.
func setPurged(sp *optrace.Span, n int) {
	if n > 0 {
		sp.SetAttrInt("purged", int64(n))
	}
}

// purgeAllT removes path's stat entry, then the data blocks recorded for it
// and those on their way, and hands k how many keys it removed: the purge a
// write-back runs when another mutation made the file's old end unknown. See
// metaOp.purgeAll.
func (s *SMCache) purgeAllT(t *sim.Task, path string, k func(n int)) {
	op := s.takeMeta(metaPurge, t, nil)
	op.path, op.kN = path, k
	op.purgeAll()
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

// metaVerb names an operation that runs on a metaOp.
type metaVerb uint8

const (
	metaCreate metaVerb = iota
	metaOpen
	metaClose
	metaTruncate
	metaUnlink
	metaPurge // a write-back's purgeAllT
)

// metaOp is the pooled frame of SMCache's namespace verbs — create, open,
// close, truncate and unlink — and of the purges they and the write-backs
// run: the request, the purge's snapshot of the blocks still to delete, and
// every continuation, prebound, so what such a verb allocates is the state
// it creates. A path with nothing resident purges at no cost. Like smReadOp,
// the op returns to its pool before k runs.
type metaOp struct {
	s    *SMCache
	verb metaVerb
	t    *sim.Task
	sp   *optrace.Span
	path string
	fd   gluster.FD
	// unlinks is the path's unlink count as a create or open reached the
	// storage; stamp its applied count as the re-stat started.
	unlinks, stamp uint64

	// The purge: the path's set, the blocks still to delete (a snapshot
	// whose backing array todoBuf keeps), how many keys went, and the key
	// being deleted.
	set     *blockSet
	todo    blockSet
	todoBuf []setChunk
	n       int
	key     []byte

	// The caller's continuation, by result shape.
	kFD  func(gluster.FD, error)
	kErr func(error)
	kN   func(int)

	fnFD                  func(gluster.FD, error)
	fnErr                 func(error)
	fnStat                func(*gluster.Stat, error)
	fnPushed              func()
	fnDeleted, fnStatGone func(bool)
}

// takeMeta draws a frame for one operation under span sp.
func (s *SMCache) takeMeta(v metaVerb, t *sim.Task, sp *optrace.Span) *metaOp {
	op := s.metaOps.Pop()
	if op == nil {
		op = &metaOp{s: s}
		op.fnFD, op.fnErr, op.fnStat, op.fnPushed = op.gotFD, op.gotErr, op.gotStat, op.pushed
		op.fnDeleted, op.fnStatGone = op.deleted, op.statGone
	}
	op.verb, op.t, op.sp = v, t, sp
	return op
}

// finish closes the span, returns the frame to the pool, and hands the
// caller its result.
func (op *metaOp) finish(err error) {
	op.sp.End(op.t)
	kFD, kErr, kN, fd, n := op.kFD, op.kErr, op.kN, op.fd, op.n
	op.t, op.sp, op.path, op.set, op.fd, op.n = nil, nil, "", nil, 0, 0
	op.kFD, op.kErr, op.kN = nil, nil, nil
	op.s.metaOps.Push(op)
	switch {
	case kFD != nil:
		kFD(fd, err)
	case kErr != nil:
		kErr(err)
	default:
		kN(n)
	}
}

// CreateT implements gluster.TaskFS.
func (s *SMCache) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	s.openT(metaCreate, t, path, k)
}

// OpenT implements gluster.TaskFS.
func (s *SMCache) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	s.openT(metaOpen, t, path, k)
}

// openT runs a create or an open on the storage; gotFD completes it.
func (s *SMCache) openT(v metaVerb, t *sim.Task, path string, k func(gluster.FD, error)) {
	name := "open"
	if v == metaCreate {
		name = "create"
	}
	op := s.takeMeta(v, t, optrace.StartSpan(t, optrace.LayerSMCache, name))
	op.path, op.kFD = path, k
	op.unlinks = s.pushes.seen(path).unlinks
	if v == metaCreate {
		s.child.CreateT(t, path, op.fnFD)
	} else {
		s.child.OpenT(t, path, op.fnFD)
	}
}

// gotFD is the completion CreateT and OpenT share: record the descriptor
// (unless the path was unlinked since the storage opened it), purge the
// MCDs of data for the file (a re-created or re-opened path must not serve
// stale blocks), then push the fresh stat structure (paper §4.3.2 and
// §4.2).
func (op *metaOp) gotFD(fd gluster.FD, err error) {
	op.fd = fd
	if err != nil {
		op.finish(err)
		return
	}
	s := op.s
	if s.pushes.seen(op.path).unlinks == op.unlinks {
		s.fdPaths[fd] = op.path
	}
	op.purgeData(false)
}

// CloseT implements gluster.TaskFS: SMCache discards the file's data (not
// its stat entry) from the MCDs when the close arrives.
func (s *SMCache) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	op := s.takeMeta(metaClose, t, optrace.StartSpan(t, optrace.LayerSMCache, "close"))
	op.fd, op.kErr = fd, k
	path, ok := s.fdPaths[fd]
	if !ok {
		s.child.CloseT(t, fd, op.fnErr)
		return
	}
	op.path = path
	op.purgeData(false)
}

// gotErr receives the storage's close, truncate or unlink.
func (op *metaOp) gotErr(err error) {
	if err != nil || op.verb == metaClose {
		op.finish(err)
		return
	}
	op.purgeAll()
}

// purgeAll removes the stat entry, then the data blocks and those on their
// way — for deletes, truncates and writes whose old end of file another
// mutation made unknown, where a stale stat would be a false positive.
func (op *metaOp) purgeAll() {
	op.s.Stats.Purges++
	op.key = appendStatKey(op.key[:0], op.path)
	op.s.mcd.DeleteKeyT(op.t, op.key, op.fnStatGone)
}

func (op *metaOp) statGone(bool) {
	op.n = 1
	op.purgeData(true)
}

// purgeData deletes the data blocks recorded for the path as it starts, in
// block order, counting them in n; one a concurrent push lands meanwhile
// stays recorded for the next purge. The stat entry stays valid (open/close
// do not change file contents' metadata beyond what the fresh stat push
// provides). A purge for a change of contents (inflight) deletes the blocks
// whose store is on its way too: each delete follows its store to the
// daemon, and what was read before the change must not stay.
func (op *metaOp) purgeData(inflight bool) {
	set := op.s.pushed[op.path]
	if set == nil || len(set.chunks) == 0 && (!inflight || len(set.inflight) == 0) {
		op.purged()
		return
	}
	op.set = set
	op.todo.chunks = append(op.todoBuf[:0], set.chunks...)
	if inflight {
		for _, bn := range set.inflight {
			op.todo.add(bn)
		}
	}
	op.todoBuf = op.todo.chunks
	op.deleted(false)
}

// deleted deletes the next block of the snapshot, or — none left — moves on.
func (op *metaOp) deleted(bool) {
	bn, ok := op.todo.take()
	if !ok {
		op.purged()
		return
	}
	s := op.s
	op.n++
	s.Stats.Purges++
	op.set.remove(bn)
	op.key = appendBlockKey(op.key[:0], op.path, bn*s.cfg.BlockSize)
	s.mcd.DeleteKeyT(op.t, op.key, op.fnDeleted)
}

// purged continues an operation past its purge.
func (op *metaOp) purged() {
	s := op.s
	if op.verb != metaPurge {
		setPurged(op.sp, op.n)
	}
	switch op.verb {
	case metaCreate, metaOpen, metaTruncate:
		op.stamp = s.pushes.stamp(op.path)
		s.child.StatT(op.t, op.path, op.fnStat)
	case metaClose:
		delete(s.fdPaths, op.fd)
		s.child.CloseT(op.t, op.fd, op.fnErr)
	default: // unlink, a write-back's purge
		op.finish(nil)
	}
}

// gotStat pushes the re-read stat structure; an operation whose re-stat
// failed has succeeded all the same, with nothing pushed.
func (op *metaOp) gotStat(st *gluster.Stat, err error) {
	if err != nil {
		op.finish(nil)
		return
	}
	op.s.pushes.pushStat(op.t, op.path, st, op.stamp, op.fnPushed)
}

func (op *metaOp) pushed() { op.finish(nil) }

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

// done closes the span, recycles the op, and delivers the result.
func (op *smReadOp) done(data blob.Blob, err error) {
	t, k := op.t, op.k
	op.sp.End(t)
	op.t, op.k, op.sp = nil, nil, nil
	op.path, op.data = "", blob.Blob{}
	op.s.readOps.Push(op)
	k(data, err)
}

// ReadT implements gluster.TaskFS. The read is widened to block alignment
// so the completed data can be fed to the MCDs as whole blocks; the
// client's requested range is sliced out of the aligned result.
func (s *SMCache) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	op := s.readOps.Pop()
	if op == nil {
		op = &smReadOp{s: s}
		op.fnDone = op.done
		op.fnAligned = op.aligned
		op.fnPush = op.push
		op.fnPushed = op.pushed
	}
	op.t, op.off, op.size, op.k = t, off, size, k
	op.sp = optrace.StartSpan(t, optrace.LayerSMCache, "read")
	path, tracked := s.fdPaths[fd]
	if !tracked || size <= 0 {
		s.child.ReadT(t, fd, off, size, op.fnDone)
		return
	}
	alignedOff, alignedSize := alignSpan(off, size, s.cfg.BlockSize)
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

// smStatOp is StatT's pooled per-operation frame: the request, the frame's
// own copy of the stat the storage lent, and every continuation prebound,
// so a stat that misses the bank allocates nothing of its own. Inline, the
// op returns to its pool before k runs and lends k its copy. In Threaded
// mode the stat completes as the storage answers, and the frame carries the
// push on a helper actor, out of the pool until the push finishes — so the
// copy k borrowed stays intact while k runs.
type smStatOp struct {
	s     *SMCache
	t     *sim.Task // the caller's task, then in Threaded mode the helper's
	sp    *optrace.Span
	path  string
	stamp uint64 // the path's applied count as the storage stat started
	st    gluster.Stat
	k     func(*gluster.Stat, error)

	fnStat   func(*gluster.Stat, error)
	fnPushed func()
	fnHelper func(*sim.Task)
	fnHelped func()
}

// StatT implements gluster.TaskFS, feeding the completed stat structure to
// the MCDs so later client stats hit the cache.
func (s *SMCache) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	op := s.statOps.Pop()
	if op == nil {
		op = &smStatOp{s: s}
		op.fnStat, op.fnPushed, op.fnHelper, op.fnHelped = op.gotStat, op.pushed, op.helper, op.helped
	}
	op.t, op.path, op.k = t, path, k
	op.sp = optrace.StartSpan(t, optrace.LayerSMCache, "stat")
	op.stamp = s.pushes.stamp(path)
	s.child.StatT(t, path, op.fnStat)
}

// gotStat pushes a file's stat — inline, or on a helper actor in Threaded
// mode — and passes an error or a directory's stat straight on.
func (op *smStatOp) gotStat(st *gluster.Stat, err error) {
	if err != nil {
		op.finish(nil, err)
		return
	}
	if st.IsDir {
		op.finish(st, nil)
		return
	}
	op.st = *st // st is lent; the push and k outlive this continuation
	s := op.s
	if !s.cfg.Threaded {
		s.pushes.pushStat(op.t, op.path, &op.st, op.stamp, op.fnPushed)
		return
	}
	s.env.StartTask("smcache-stat-push", op.fnHelper)
	t, sp, k := op.t, op.sp, op.k
	op.t, op.sp, op.k = nil, nil, nil
	sp.End(t)
	k(&op.st, nil)
}

func (op *smStatOp) pushed() { op.finish(&op.st, nil) }

// finish closes the span, returns the frame to the pool, and hands the
// caller st.
func (op *smStatOp) finish(st *gluster.Stat, err error) {
	t, sp, k := op.t, op.sp, op.k
	sp.End(t)
	op.release()
	k(st, err)
}

func (op *smStatOp) release() {
	op.t, op.sp, op.k, op.path = nil, nil, nil, ""
	op.s.statOps.Push(op)
}

// helper is the Threaded push's actor.
func (op *smStatOp) helper(h *sim.Task) {
	op.t = h
	op.s.pushes.pushStat(h, op.path, &op.st, op.stamp, op.fnHelped)
}

// helped ends the helper once its push has run.
func (op *smStatOp) helped() {
	h := op.t
	op.release()
	h.End()
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
// lie past end of file, then pushing the new stat structure.
func (s *SMCache) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	op := s.takeMeta(metaTruncate, t, optrace.StartSpan(t, optrace.LayerSMCache, "truncate"))
	op.path, op.kErr = path, k
	s.pushes.changed(path).truncates++ // the storage truncates as the call arrives
	s.child.TruncateT(t, path, size, op.fnErr)
}

// UnlinkT implements gluster.TaskFS: the file's cache entries are removed
// so clients cannot see false positives for a deleted file (paper §4.2).
func (s *SMCache) UnlinkT(t *sim.Task, path string, k func(error)) {
	op := s.takeMeta(metaUnlink, t, optrace.StartSpan(t, optrace.LayerSMCache, "unlink"))
	op.path, op.kErr = path, k
	// The storage unlinks as the call arrives. The descriptors open on the
	// path keep the file they name, which is no longer the path's: what is
	// read or written through them is not the path's to push or purge.
	s.pushes.changed(path).unlinks++
	for fd, p := range s.fdPaths {
		if p == path {
			delete(s.fdPaths, fd)
		}
	}
	s.child.UnlinkT(t, path, op.fnErr)
}
