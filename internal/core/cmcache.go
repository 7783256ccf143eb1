package core

import (
	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// CMCacheStats counts cache interactions at the client translator.
type CMCacheStats struct {
	StatHits   uint64
	StatMisses uint64
	// ReadHits counts reads fully served from the MCD bank; ReadMisses
	// counts reads forwarded to the server because a covering block was
	// absent.
	ReadHits   uint64
	ReadMisses uint64
	// BlockLookups and BlockHits count individual covering blocks.
	BlockLookups uint64
	BlockHits    uint64
}

// CMCache is the client-side IMCa translator. It wraps the client's
// protocol stack (its child) and tries to serve Stat and Read from the MCD
// bank before involving the server.
type CMCache struct {
	gluster.Blocking
	child gluster.TaskFS
	mcd   *memcache.SimClient
	cfg   Config

	// fdPaths is the paper's client-side "database" recording the
	// absolute path stored at Open for later Read key construction.
	fdPaths map[gluster.FD]string
	// skeys interns stat-structure MCD keys so the stat hot path does not
	// rebuild "<path>:stat" per operation. Private by default; deployments
	// share one table across all translators via ShareStatKeys.
	skeys *KeyInterner
	// openOps, statOps and readOps pool the per-operation frames of
	// CreateT and OpenT, StatT and ReadT; writes pools WriteT's, and pushes
	// the block-push frames of client-populate mode.
	openOps sim.Free[openOp]
	statOps sim.Free[statOp]
	readOps sim.Free[readOp]
	pushes  pushPool
	writes  writeBacks

	Stats CMCacheStats

	// Stat/Read latency distributions, registered by Register; nil no-ops
	// otherwise.
	statHist, readHist *metrics.Histogram
	// fr records layer transitions (stat and read misses forwarded to the
	// server) under frName when attached via SetFlight.
	fr     *flight.Recorder
	frName string
}

var _ gluster.TaskFS = (*CMCache)(nil)

// NewCMCache wraps child with the client translator using the given MCD
// bank client. It panics on a block size CheckBlockSize refuses.
func NewCMCache(child gluster.FS, mcd *memcache.SimClient, cfg Config) *CMCache {
	if err := CheckBlockSize(cfg.BlockSize); err != nil {
		panic(err)
	}
	c := &CMCache{
		child:   gluster.Lift(child),
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
	}
	c.pushes = pushPool{mcd: mcd, bs: cfg.BlockSize, statKey: c.statKey}
	c.writes = writeBacks{child: c.child, pushes: &c.pushes}
	c.Blocking = gluster.NewBlocking(c)
	return c
}

// TaskReady implements gluster.TaskFS: the translator is task-capable when
// the wrapped protocol stack is (the bank client always is).
func (c *CMCache) TaskReady() bool { return c.child.TaskReady() }

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (c *CMCache) ShareStatKeys(in *KeyInterner) { c.skeys = in }

// statKey returns the interned "<path>:stat" key. A translator nobody gave
// a shared table builds a private one on first use.
func (c *CMCache) statKey(path string) string {
	if c.skeys == nil {
		c.skeys = NewKeyInterner()
	}
	return c.skeys.get(path)
}

// Bank returns the MCD bank client (for stats inspection).
func (c *CMCache) Bank() *memcache.SimClient { return c.mcd }

// SetFlight attaches a flight recorder under the given actor name: every
// miss this translator forwards down to the server appends one record.
// The bank client records its own ejection transitions, so it is
// wired here too.
func (c *CMCache) SetFlight(rec *flight.Recorder, name string) {
	c.fr = rec
	c.frName = name
	c.mcd.SetFlight(rec)
}

// openOp is CreateT's and OpenT's pooled frame: it records the path↔fd
// association when the child's create or open succeeds. Like statOp, it
// returns to its pool before k runs.
type openOp struct {
	c        *CMCache
	path     string
	k        func(gluster.FD, error)
	fnOpened func(gluster.FD, error)
}

// tracked returns a create/open continuation that records the path↔fd
// association on success, then runs k.
func (c *CMCache) tracked(path string, k func(gluster.FD, error)) func(gluster.FD, error) {
	op := c.openOps.Pop()
	if op == nil {
		op = &openOp{c: c}
		op.fnOpened = op.opened
	}
	op.path, op.k = path, k
	return op.fnOpened
}

func (op *openOp) opened(fd gluster.FD, err error) {
	c, k := op.c, op.k
	if err == nil {
		c.fdPaths[fd] = op.path
	}
	op.path, op.k = "", nil
	c.openOps.Push(op)
	k(fd, err)
}

// CreateT implements gluster.TaskFS; create operations offer no caching
// opportunity and are forwarded directly (paper §4.2).
func (c *CMCache) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.child.CreateT(t, path, c.tracked(path, k))
}

// OpenT implements gluster.TaskFS, recording the path↔fd association.
func (c *CMCache) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.child.OpenT(t, path, c.tracked(path, k))
}

// CloseT implements gluster.TaskFS; closes propagate directly to the server.
func (c *CMCache) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	delete(c.fdPaths, fd)
	c.child.CloseT(t, fd, k)
}

// statOp is StatT's pooled per-operation frame: the continuation state the
// two closures used to capture, with both legs prebound as method values so
// a steady-state stat allocates nothing client-side. The op returns to its
// translator's pool before k runs — by then every pooled field has been
// copied to locals, so k may immediately issue another stat that reuses it.
type statOp struct {
	c     *CMCache
	t     *sim.Task
	path  string
	k     func(*gluster.Stat, error)
	sp    *optrace.Span
	t0    sim.Time
	fnGot func(*memcache.Item, bool)
	fnFwd func(*gluster.Stat, error)
	// st is the scratch frame hit results decode into; &st is handed to k
	// as a borrow, valid only until this op's next bank hit. Stat callers
	// consume the structure inside their continuation (the engine is
	// single-threaded and the next decode is always behind another RPC),
	// so the borrow never outlives its window.
	st gluster.Stat
}

func (op *statOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.path = ""
	op.c.statOps.Push(op)
}

// got is the bank-lookup continuation: serve the hit or fall back to the
// server.
func (op *statOp) got(it *memcache.Item, ok bool) {
	c, t, sp := op.c, op.t, op.sp
	if ok {
		if err := decodeStatInto(&op.st, it.Value, op.path); err == nil {
			st := &op.st
			c.Stats.StatHits++
			sp.SetAttr("result", "hit")
			sp.End(t)
			c.statHist.Observe(t.Now().Sub(op.t0))
			k := op.k
			op.release()
			k(st, nil)
			return
		}
	}
	c.Stats.StatMisses++
	sp.SetAttr("result", "miss")
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "stat", 0)
	c.child.StatT(t, op.path, op.fnFwd)
}

// fwd is the server-fallback continuation.
func (op *statOp) fwd(st *gluster.Stat, err error) {
	t, sp, k := op.t, op.sp, op.k
	sp.End(t)
	op.c.statHist.Observe(t.Now().Sub(op.t0))
	op.release()
	k(st, err)
}

// StatT implements gluster.TaskFS: it first attempts to fetch the stat
// structure from the MCD bank and falls back to the server on a miss.
func (c *CMCache) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	op := c.statOps.Pop()
	if op == nil {
		op = &statOp{c: c}
		op.fnGot = op.got
		op.fnFwd = op.fwd
	}
	op.t, op.path, op.k = t, path, k
	op.sp = optrace.StartSpan(t, optrace.LayerCMCache, "stat")
	op.t0 = t.Now()
	c.mcd.GetT(t, c.statKey(path), op.fnGot)
}

// readOp is ReadT's pooled per-operation frame: the request, the covering
// block keys and assembly scratch (which keep their capacity), and every
// continuation of the read — bank answer, server fallback, client-populate
// fill and push — prebound as method values. The bank borrows the keys'
// bytes, so a bank hit allocates nothing but, for data that does not
// coalesce, the result blob's spill. Like statOp, the op returns to its pool
// before k runs.
type readOp struct {
	c         *CMCache
	t         *sim.Task
	fd        gluster.FD
	path      string
	off, size int64
	k         func(blob.Blob, error)
	sp        *optrace.Span
	t0        sim.Time
	bk        blockKeys
	parts     []blob.Blob
	// alignedOff and data carry client-populate mode's widened server read
	// from the fill to the slice-out after the push.
	alignedOff int64
	data       blob.Blob

	fnGot    func([]*memcache.Item)
	fnDone   func(blob.Blob, error)
	fnFilled func(blob.Blob, error)
	fnPushed func()
}

func (op *readOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.path, op.data = "", blob.Blob{}
	for i := range op.parts {
		op.parts[i] = blob.Blob{}
	}
	op.parts = op.parts[:0]
	op.c.readOps.Push(op)
}

// ReadT implements gluster.TaskFS. The path stored at Open plus each
// covering aligned block offset form the MCD keys; if every covering block
// is present the read is assembled locally, otherwise the entire read is
// forwarded to the server (making cold misses more expensive than the
// native file system, as the paper notes).
func (c *CMCache) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	if size <= 0 {
		k(blob.Blob{}, nil)
		return
	}
	path, ok := c.fdPaths[fd]
	if !ok {
		// Descriptor not opened through this translator; pass through.
		c.child.ReadT(t, fd, off, size, k)
		return
	}
	op := c.readOps.Pop()
	if op == nil {
		op = &readOp{c: c}
		op.fnGot = op.got
		op.fnDone = op.done
		op.fnFilled = op.filled
		op.fnPushed = op.pushed
	}
	op.t, op.fd, op.path, op.off, op.size, op.k = t, fd, path, off, size, k
	op.sp = optrace.StartSpan(t, optrace.LayerCMCache, "read")
	op.sp.SetAttrInt("bytes", size)
	op.t0 = t.Now()
	op.bk.build(path, off, size, c.cfg.BlockSize)
	c.Stats.BlockLookups += uint64(len(op.bk.ends))
	c.mcd.GetMultiT(t, op.bk.buf, op.bk.ends, op.fnGot)
}

// got is the bank-lookup continuation: assemble the hit or fall back to the
// server. items is a borrow that ends when this returns; the assembled blob
// copies what it keeps.
func (op *readOp) got(items []*memcache.Item) {
	c := op.c
	hits := countHits(items)
	c.Stats.BlockHits += uint64(hits)
	if hits < len(items) {
		op.sp.SetAttr("result", "miss")
		op.forward()
		return
	}
	data, ok := assembleBlocks(&op.parts, items, op.bk.offsets, op.off, op.size, c.cfg.BlockSize)
	if !ok {
		// Mid-range EOF claim contradicted by the blocks after it.
		op.sp.SetAttr("result", "short-miss")
		op.forward()
		return
	}
	c.Stats.ReadHits++
	op.sp.SetAttr("result", "hit")
	op.done(data, nil)
}

// done closes the read's span and latency sample and delivers the result.
func (op *readOp) done(data blob.Blob, err error) {
	t, k := op.t, op.k
	op.sp.End(t)
	op.c.readHist.Observe(t.Now().Sub(op.t0))
	op.release()
	k(data, err)
}

// forward satisfies a read from the server after the MCD bank could not.
func (op *readOp) forward() {
	c, t := op.c, op.t
	c.Stats.ReadMisses++
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "read", op.size)
	if !c.cfg.ClientPopulate {
		c.child.ReadT(t, op.fd, op.off, op.size, op.fnDone)
		return
	}
	// Client-populate mode: widen to block alignment, push the fetched
	// blocks ourselves, and return the requested slice.
	alignedOff, alignedSize := alignSpan(op.off, op.size, c.cfg.BlockSize)
	op.alignedOff = alignedOff
	c.child.ReadT(t, op.fd, alignedOff, alignedSize, op.fnFilled)
}

// filled receives client-populate mode's widened server read and pushes its
// blocks to the bank.
func (op *readOp) filled(data blob.Blob, err error) {
	if err != nil {
		op.done(blob.Blob{}, err)
		return
	}
	op.data = data
	op.c.pushes.push(op.t, op.path, op.alignedOff, data, 0, op.fnPushed)
}

// pushed slices the caller's range out of the pushed aligned read.
func (op *readOp) pushed() {
	op.done(cutRange(op.data, op.alignedOff, op.off, op.size), nil)
}

// WriteT implements gluster.TaskFS; CMCache does not intercept writes —
// they must be persistent, so they go straight to the server (paper
// §4.3.2). In client-populate mode the completed write's aligned span is
// re-read and pushed to the MCD bank, mirroring what SMCache does
// server-side: both run the shared writeBack frame.
func (c *CMCache) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerCMCache, "write")
	sp.SetAttrInt("bytes", data.Len())
	path, tracked := c.fdPaths[fd]
	c.writes.run(t, sp, fd, path, tracked && c.cfg.ClientPopulate, off, data, k)
}

// UnlinkT implements gluster.TaskFS; deletes are forwarded without
// interception (the server-side translator purges the MCD entries).
func (c *CMCache) UnlinkT(t *sim.Task, path string, k func(error)) {
	c.child.UnlinkT(t, path, k)
}

// MkdirT implements gluster.TaskFS.
func (c *CMCache) MkdirT(t *sim.Task, path string, k func(error)) { c.child.MkdirT(t, path, k) }

// ReaddirT implements gluster.TaskFS.
func (c *CMCache) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	c.child.ReaddirT(t, path, k)
}

// TruncateT implements gluster.TaskFS.
func (c *CMCache) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	c.child.TruncateT(t, path, size, k)
}

// countHits returns how many entries of a multi-get result are present.
func countHits(items []*memcache.Item) int {
	n := 0
	for _, it := range items {
		if it != nil {
			n++
		}
	}
	return n
}

// assembleBlocks stitches the requested [off, off+size) range together from
// the covering cache blocks; items is the bank's answer, aligned with
// offsets and fully present. A block shorter than the block size claims end
// of file — trustworthy only in the final covering block. A short block
// with more covering blocks behind it is an inconsistency (e.g. a stale
// tail block of a file that has since grown): returning the assembly would
// be a silent short read, so ok is false and the caller falls back to the
// server. Pure block arithmetic. scratch collects the pieces; a pooled
// caller passes a slice that keeps its capacity.
func assembleBlocks(scratch *[]blob.Blob, items []*memcache.Item, offsets []int64, off, size, bs int64) (blob.Blob, bool) {
	parts := (*scratch)[:0]
	want := size
	for i, bo := range offsets {
		b := items[i].Value
		lo := int64(0)
		if bo < off {
			lo = off - bo
		}
		if lo < b.Len() {
			hi := b.Len()
			if take := lo + want; take < hi {
				hi = take
			}
			parts = append(parts, b.Slice(lo, hi))
			want -= hi - lo
		}
		if want == 0 {
			break
		}
		if b.Len() < bs {
			if i < len(offsets)-1 {
				*scratch = parts
				return blob.Blob{}, false
			}
			break // EOF in the final block: a legitimate short read
		}
	}
	*scratch = parts
	return blob.Concat(parts...), true
}
