package gluster

import (
	"sort"
	"strings"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/optrace"
	"imca/internal/pagecache"
	"imca/internal/sim"
)

// PosixConfig sizes the storage xlator.
type PosixConfig struct {
	// Dev is the backing device (a disk or RAID array).
	Dev disk.Device
	// CacheBytes bounds the OS buffer cache (the server's RAM available
	// for file data + metadata pages).
	CacheBytes int64
}

const (
	// PageSize is the buffer-cache page size, Linux's 4 KB.
	PageSize = 4096
	// ReadaheadBytes (8 MB) extends the last missing extent of a read
	// (clipped to EOF), modeling the kernel's sequential readahead plus
	// array-level prefetch: it is what lets streaming reads approach the
	// platter rate instead of paying a seek per request.
	ReadaheadBytes = 8 << 20
	// MetaRegion reserves space at each file's base address for its
	// on-disk inode/indirect blocks (data starts after it), and is the
	// size of one journaled metadata update.
	MetaRegion = 4096
	// fileRegion is the virtual address space reserved per file. The
	// device address space is abstract, so generous spacing costs
	// nothing and keeps files disjoint. The extra stripe of stagger
	// spreads files' starting addresses across RAID members, as a real
	// allocator would, so concurrent streams do not convoy on one disk.
	fileRegion  = 4<<30 + fileStagger
	fileStagger = disk.HighPointStripe
	// metaInoBit marks buffer-cache entries holding metadata pages so
	// they never collide with data pages of the same inode.
	metaInoBit = uint64(1) << 63
	// journalBase is the device region where metadata UPDATES are
	// journaled. A journaling file system appends metadata sequentially,
	// so back-to-back creates do not each pay a full seek; metadata
	// READS still go to the inode's home location.
	journalBase = int64(1) << 50
)

type inode struct {
	ino   uint64
	path  string
	size  int64
	base  int64
	atime sim.Time
	mtime sim.Time
	ctime sim.Time
	data  extentMap
}

// Posix is the storage xlator: it keeps the namespace and file contents in
// memory (extent maps of blobs) while charging virtual time to the disk
// model through an LRU buffer cache, like a local file system on the
// GlusterFS server ("brick").
type Posix struct {
	Blocking
	env       *sim.Env
	dev       disk.Device
	cache     *pagecache.Cache
	readahead int64 // ReadaheadBytes; a test may turn it off

	files      map[string]*inode
	dirs       map[string]map[string]struct{}
	fds        map[FD]*inode // each open descriptor's file
	nextFD     FD
	nextIno    uint64
	nextOff    int64
	journalOff int64

	// ops is the free list of operation frames; see posixOp.
	ops sim.Free[posixOp]

	// Stats
	DiskReads, DiskWrites uint64
}

var _ TaskFS = (*Posix)(nil)

// NewPosix returns a storage xlator over the given device and cache size.
func NewPosix(env *sim.Env, cfg PosixConfig) *Posix {
	if cfg.Dev == nil {
		panic("gluster: posix needs a device")
	}
	p := &Posix{
		env:       env,
		dev:       cfg.Dev,
		cache:     pagecache.New(cfg.CacheBytes, PageSize),
		readahead: ReadaheadBytes,
		files:     make(map[string]*inode),
		dirs:      make(map[string]map[string]struct{}),
		fds:       make(map[FD]*inode),
	}
	p.dirs["/"] = make(map[string]struct{})
	p.Blocking = NewBlocking(p)
	return p
}

// TaskReady implements TaskFS: every disk.Device serves accesses on any
// task, so the storage xlator always does.
func (px *Posix) TaskReady() bool { return true }

// Cache exposes the buffer cache (for stats and cold-cache experiments).
func (px *Posix) Cache() *pagecache.Cache { return px.cache }

// clean normalizes a path to absolute form without a trailing slash.
func clean(path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	for strings.Contains(path, "//") {
		path = strings.ReplaceAll(path, "//", "/")
	}
	if len(path) > 1 {
		path = strings.TrimSuffix(path, "/")
	}
	return path
}

func parentOf(path string) (dir, name string) {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

// ensureDir creates path and any missing ancestors as directories.
func (px *Posix) ensureDir(path string) map[string]struct{} {
	if d, ok := px.dirs[path]; ok {
		return d
	}
	parent, name := parentOf(path)
	pd := px.ensureDir(parent)
	pd[name] = struct{}{}
	d := make(map[string]struct{})
	px.dirs[path] = d
	return d
}

func (px *Posix) metaKey(ino uint64) uint64 { return ino | metaInoBit }

// touchMeta accounts op's metadata-page access: a buffer-cache hit is
// free, a miss reads the inode block from disk; an update (metaUpdate) is
// journaled. op.touched continues.
func (px *Posix) touchMeta(op *posixOp) {
	if metaUpdate(op.verb) {
		// Reserve the journal slot before queueing at the disk, so
		// concurrent metadata updates append in order.
		off := px.journalOff
		px.journalOff += MetaRegion
		px.dev.AccessT(op.t, journalBase+off, MetaRegion, true, op.fnDev)
		return
	}
	if missing := px.cache.Lookup(px.metaKey(op.in.ino), 0, MetaRegion); len(missing) > 0 {
		px.dev.AccessT(op.t, op.in.base, MetaRegion, false, op.fnDev)
		return
	}
	op.touched()
}

// metaUpdate reports whether v's metadata access is an update, journaled,
// rather than a read of the inode block.
func metaUpdate(v verb) bool { return v == verbCreate || v == verbTruncate }

// metaLoaded accounts the device access touchMeta queued for, then continues.
func (op *posixOp) metaLoaded() {
	px := op.px
	if metaUpdate(op.verb) {
		px.DiskWrites++
	} else {
		px.DiskReads++
	}
	px.cache.Insert(px.metaKey(op.in.ino), 0, MetaRegion)
	op.touched()
}

// touched continues an operation past its metadata access.
func (op *posixOp) touched() {
	switch op.verb {
	case verbStat:
		op.meta()
	case verbCreate, verbOpen:
		op.opened()
	default: // truncate
		op.finish(nil)
	}
}

// opened issues the descriptor of a created or opened file.
func (op *posixOp) opened() {
	px := op.px
	px.nextFD++
	fd := px.nextFD
	px.fds[fd] = op.in
	k := op.k.fd
	op.end()
	k(fd, nil)
}

// finish ends an operation whose result is an error alone.
func (op *posixOp) finish(err error) {
	k := op.k.err
	op.end()
	k(err)
}

// CreateT implements TaskFS.
func (px *Posix) CreateT(t *sim.Task, path string, k func(FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "create")
	path = clean(path)
	if _, ok := px.files[path]; ok {
		sp.End(t)
		k(0, ErrExist)
		return
	}
	if _, ok := px.dirs[path]; ok {
		sp.End(t)
		k(0, ErrIsDir)
		return
	}
	dir, name := parentOf(path)
	px.ensureDir(dir)[name] = struct{}{}
	px.nextIno++
	now := px.env.Now()
	in := &inode{
		ino:   px.nextIno,
		path:  path,
		base:  px.nextOff,
		atime: now, mtime: now, ctime: now,
	}
	px.nextOff += fileRegion
	px.files[path] = in
	op := px.takeOp(verbCreate, t, sp, in)
	op.k.fd = k
	px.touchMeta(op)
}

// OpenT implements TaskFS.
func (px *Posix) OpenT(t *sim.Task, path string, k func(FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "open")
	path = clean(path)
	in, ok := px.files[path]
	if !ok {
		sp.End(t)
		if _, isDir := px.dirs[path]; isDir {
			k(0, ErrIsDir)
			return
		}
		k(0, ErrNotExist)
		return
	}
	op := px.takeOp(verbOpen, t, sp, in)
	op.k.fd = k
	px.touchMeta(op)
}

// CloseT implements TaskFS.
func (px *Posix) CloseT(t *sim.Task, fd FD, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "close")
	if _, ok := px.fds[fd]; !ok {
		sp.End(t)
		k(ErrBadFD)
		return
	}
	delete(px.fds, fd)
	sp.End(t)
	k(nil)
}

// posixOp is the storage xlator's pooled frame for every operation that
// waits on the device — create, open, stat, read, write, truncate and
// unlink — replacing their device-access continuation closures (and ReadT's
// self-referential miss-repair loop) with prebound method values. The frame
// returns to the pool before k runs (release-before-continue).
type posixOp struct {
	px   *Posix
	verb verb
	t    *sim.Task
	sp   *optrace.Span
	in   *inode

	path      string    // stat
	off, size int64     // read: the range, clipped to the file size; write: off
	data      blob.Blob // write

	// ReadT's miss repair: the page-cache misses, the one being read from
	// the device, and when the repair began.
	missing          []pagecache.Range
	i                int
	missOff, missLen int64
	fillStart        sim.Time
	// parts is extentMap.read's scratch; it keeps its capacity.
	parts []blob.Blob
	// st is the structure a stat lends its continuation: valid until the
	// continuation returns or runs another operation on this Posix.
	st Stat

	k conts // the caller's continuation, by result shape

	fnDev func() // the device-access continuation; see devDone
}

func (px *Posix) takeOp(v verb, t *sim.Task, sp *optrace.Span, in *inode) *posixOp {
	op := px.ops.Pop()
	if op == nil {
		op = &posixOp{px: px}
		op.fnDev = op.devDone
	}
	op.verb, op.t, op.sp, op.in = v, t, sp, in
	return op
}

// devDone continues the operation after its device access.
func (op *posixOp) devDone() {
	switch op.verb {
	case verbRead:
		op.filled()
	case verbWrite:
		op.written()
	case verbUnlink:
		op.px.DiskWrites++
		op.finish(nil)
	default:
		op.metaLoaded()
	}
}

// end closes the span and returns the frame to the pool; the caller has
// copied out what its continuation needs.
func (op *posixOp) end() {
	op.sp.End(op.t)
	op.t, op.sp, op.in, op.path, op.data, op.missing = nil, nil, nil, "", blob.Blob{}, nil
	op.k = conts{}
	for i := range op.parts {
		op.parts[i] = blob.Blob{}
	}
	op.parts = op.parts[:0]
	op.px.ops.Push(op)
}

// ReadT implements TaskFS. Page-cache misses are repaired from the device
// in order, one access at a time.
func (px *Posix) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "read")
	in, ok := px.fds[fd]
	if !ok {
		sp.End(t)
		k(blob.Blob{}, ErrBadFD)
		return
	}
	if off >= in.size {
		sp.End(t)
		k(blob.Blob{}, nil)
		return
	}
	if off+size > in.size {
		size = in.size - off
	}
	op := px.takeOp(verbRead, t, sp, in)
	op.off, op.size, op.k.data = off, size, k
	op.missing, op.i = px.cache.Lookup(in.ino, off, size), 0
	op.fillStart = px.env.Now()
	op.repair()
}

// repair reads the next page-cache miss from the device, or — none left —
// completes the read from the extent map.
func (op *posixOp) repair() {
	px, in := op.px, op.in
	for ; op.i < len(op.missing); op.i++ {
		r := op.missing[op.i]
		n := r.Len
		if op.i == len(op.missing)-1 && r.End() >= op.off+op.size {
			// The miss reaches the end of the request: read ahead.
			n += px.readahead
		}
		// Clip the page-aligned miss to the file size: the tail page
		// of a short file reads only what exists.
		if r.Off+n > in.size {
			n = in.size - r.Off
		}
		if n > 0 {
			op.missOff, op.missLen = r.Off, n
			px.dev.AccessT(op.t, in.base+MetaRegion+r.Off, n, false, op.fnDev)
			return
		}
	}
	if len(op.missing) > 0 {
		// Time spent repairing the page-cache misses from disk.
		px.cache.FillHist.Observe(px.env.Now().Sub(op.fillStart))
	}
	in.atime = px.env.Now()
	k, data := op.k.data, in.data.read(&op.parts, op.off, op.size)
	op.end()
	k(data, nil)
}

func (op *posixOp) filled() {
	op.px.DiskReads++
	op.px.cache.Insert(op.in.ino, op.missOff, op.missLen)
	op.i++
	op.repair()
}

// WriteT implements TaskFS. Writes are write-through: they reach the device
// before completing (the paper's "Writes are always persistent").
func (px *Posix) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "write")
	in, ok := px.fds[fd]
	if !ok {
		sp.End(t)
		k(0, ErrBadFD)
		return
	}
	if data.Len() == 0 {
		sp.End(t)
		k(0, nil)
		return
	}
	op := px.takeOp(verbWrite, t, sp, in)
	op.off, op.data, op.k.n = off, data, k
	px.dev.AccessT(t, op.in.base+MetaRegion+off, data.Len(), true, op.fnDev)
}

func (op *posixOp) written() {
	px, in, off, size := op.px, op.in, op.off, op.data.Len()
	px.DiskWrites++
	px.cache.Insert(in.ino, off, size)
	in.data.write(off, op.data)
	if off+size > in.size {
		in.size = off + size
	}
	in.mtime = px.env.Now()
	k := op.k.n
	op.end()
	k(size, nil)
}

// meta completes a stat of an existing file. The *Stat handed to k is the
// frame's scratch, lent as TaskFS says a stat may be: the frame is back in
// the pool when k runs, so k copies what it keeps before it runs another
// operation here.
func (op *posixOp) meta() {
	in, k := op.in, op.k.stat
	op.st = Stat{
		Path: op.path, Ino: in.ino, Size: in.size,
		Atime: in.atime, Mtime: in.mtime, Ctime: in.ctime,
	}
	op.end()
	k(&op.st, nil)
}

// StatT implements TaskFS.
func (px *Posix) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "stat")
	path = clean(path)
	if _, ok := px.dirs[path]; ok {
		sp.End(t)
		k(&Stat{Path: path, IsDir: true}, nil)
		return
	}
	in, ok := px.files[path]
	if !ok {
		sp.End(t)
		k(nil, ErrNotExist)
		return
	}
	op := px.takeOp(verbStat, t, sp, in)
	op.path, op.k.stat = path, k
	px.touchMeta(op)
}

// MkdirT implements TaskFS (pure namespace work; no device access).
func (px *Posix) MkdirT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "mkdir")
	path = clean(path)
	if _, ok := px.files[path]; ok {
		sp.End(t)
		k(ErrExist)
		return
	}
	if _, ok := px.dirs[path]; ok {
		sp.End(t)
		k(ErrExist)
		return
	}
	px.ensureDir(path)
	sp.End(t)
	k(nil)
}

// ReaddirT implements TaskFS (pure namespace work; no device access).
func (px *Posix) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "readdir")
	path = clean(path)
	d, ok := px.dirs[path]
	if !ok {
		sp.End(t)
		if _, isFile := px.files[path]; isFile {
			k(nil, ErrNotDir)
			return
		}
		k(nil, ErrNotExist)
		return
	}
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic listing order
	sp.End(t)
	k(names, nil)
}

// TruncateT implements TaskFS.
func (px *Posix) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "truncate")
	path = clean(path)
	in, ok := px.files[path]
	if !ok {
		sp.End(t)
		k(ErrNotExist)
		return
	}
	in.data.truncate(size)
	if size < in.size {
		px.cache.InvalidateRange(in.ino, size, in.size-size)
	}
	in.size = size
	in.mtime = px.env.Now()
	op := px.takeOp(verbTruncate, t, sp, in)
	op.k.err = k
	px.touchMeta(op)
}

// UnlinkT implements TaskFS.
func (px *Posix) UnlinkT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerPosix, "unlink")
	path = clean(path)
	in, ok := px.files[path]
	if !ok {
		sp.End(t)
		if _, isDir := px.dirs[path]; isDir {
			k(ErrIsDir)
			return
		}
		k(ErrNotExist)
		return
	}
	dir, name := parentOf(path)
	if d, ok := px.dirs[dir]; ok {
		delete(d, name)
	}
	delete(px.files, path)
	px.cache.InvalidateFile(in.ino)
	px.cache.InvalidateFile(px.metaKey(in.ino))
	// The deallocation record is journaled like any metadata update.
	off := px.journalOff
	px.journalOff += MetaRegion
	op := px.takeOp(verbUnlink, t, sp, in)
	op.k.err = k
	px.dev.AccessT(t, journalBase+off, MetaRegion, true, op.fnDev)
}

// Size returns the size of the regular file at path, ok false when there is
// none, without charging any time (an audit surface).
func (px *Posix) Size(path string) (size int64, ok bool) {
	if ino := px.files[path]; ino != nil {
		return ino.size, true
	}
	return 0, false
}

// FileCount returns the number of regular files (for tests).
func (px *Posix) FileCount() int { return len(px.files) }
