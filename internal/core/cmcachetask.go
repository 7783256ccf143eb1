package core

import (
	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// Continuation-engine (gluster.TaskFS) implementation of CMCache. Each *T
// operation mirrors its blocking sibling — same bank traffic, same server
// fallbacks, same stats and span annotations, same schedule consumption —
// with results delivered through callbacks; see sim.Task.

var _ gluster.TaskFS = (*CMCache)(nil)

// TaskReady implements gluster.TaskFS: the translator is task-capable when
// the wrapped protocol stack is.
func (c *CMCache) TaskReady() bool {
	return gluster.AsTaskFS(c.child) != nil
}

// childT returns the child as a TaskFS; callers only reach here when
// TaskReady reported true.
func (c *CMCache) childT() gluster.TaskFS { return c.child.(gluster.TaskFS) }

// CreateT implements gluster.TaskFS.
func (c *CMCache) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.childT().CreateT(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			c.fdPaths[fd] = path
		}
		k(fd, err)
	})
}

// OpenT implements gluster.TaskFS.
func (c *CMCache) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.childT().OpenT(t, path, func(fd gluster.FD, err error) {
		if err == nil {
			c.fdPaths[fd] = path
		}
		k(fd, err)
	})
}

// CloseT implements gluster.TaskFS.
func (c *CMCache) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	delete(c.fdPaths, fd)
	c.childT().CloseT(t, fd, k)
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

func newStatOp(c *CMCache) *statOp {
	op := &statOp{c: c}
	op.fnGot = op.got
	op.fnFwd = op.fwd
	return op
}

func (c *CMCache) takeStatOp() *statOp {
	if n := len(c.statOps); n > 0 {
		op := c.statOps[n-1]
		c.statOps[n-1] = nil
		c.statOps = c.statOps[:n-1]
		return op
	}
	return newStatOp(c)
}

func (op *statOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.path = ""
	op.c.statOps = append(op.c.statOps, op)
}

// got is the bank-lookup continuation: serve the hit or fall back to the
// server, exactly as Stat does.
func (op *statOp) got(it *memcache.Item, ok bool) {
	c, t, sp := op.c, op.t, op.sp
	if ok {
		if err := decodeStatInto(&op.st, it.Value, op.path); err == nil {
			st := &op.st
			c.Stats.StatHits++
			sp.SetAttr("result", "hit")
			sp.End(t)
			c.statHist.ObserveSince(t, op.t0)
			k := op.k
			op.release()
			k(st, nil)
			return
		}
	}
	c.Stats.StatMisses++
	sp.SetAttr("result", "miss")
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "stat", 0)
	optrace.ClearDeadline(t)
	c.childT().StatT(t, op.path, op.fnFwd)
}

// fwd is the server-fallback continuation.
func (op *statOp) fwd(st *gluster.Stat, err error) {
	t, sp, k := op.t, op.sp, op.k
	sp.End(t)
	op.c.statHist.ObserveSince(t, op.t0)
	op.release()
	k(st, err)
}

// StatT implements gluster.TaskFS; see Stat.
func (c *CMCache) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	op := c.takeStatOp()
	op.t, op.path, op.k = t, path, k
	op.sp = optrace.StartSpan(t, optrace.LayerCMCache, "stat")
	op.t0 = t.Now()
	c.mcd.GetT(t, c.skeys.get(path), op.fnGot)
}

// readOp is ReadT's pooled per-operation frame: the request, the covering
// block keys and assembly scratch (which keep their capacity), and every
// continuation of the read — bank answer, server fallback, client-populate
// fill and push — prebound as method values. A bank hit therefore costs the
// read's one key string and, for data that does not coalesce, the result
// blob's spill. Like statOp, the op returns to its pool before k runs.
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

func (c *CMCache) takeReadOp() *readOp {
	if n := len(c.readOps); n > 0 {
		op := c.readOps[n-1]
		c.readOps[n-1] = nil
		c.readOps = c.readOps[:n-1]
		return op
	}
	op := &readOp{c: c}
	op.fnGot = op.got
	op.fnDone = op.done
	op.fnFilled = op.filled
	op.fnPushed = op.pushed
	return op
}

func (op *readOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.path, op.data = "", blob.Blob{}
	op.bk.drop()
	for i := range op.parts {
		op.parts[i] = blob.Blob{}
	}
	op.parts = op.parts[:0]
	op.c.readOps = append(op.c.readOps, op)
}

// ReadT implements gluster.TaskFS; see Read.
func (c *CMCache) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	if size <= 0 {
		k(blob.Blob{}, nil)
		return
	}
	path, ok := c.fdPaths[fd]
	if !ok {
		// Descriptor not opened through this translator; pass through.
		c.childT().ReadT(t, fd, off, size, k)
		return
	}
	op := c.takeReadOp()
	op.t, op.fd, op.path, op.off, op.size, op.k = t, fd, path, off, size, k
	op.sp = optrace.StartSpan(t, optrace.LayerCMCache, "read")
	op.sp.SetAttrInt("bytes", size)
	op.t0 = t.Now()
	op.bk.build(path, off, size, c.cfg.blockSize())
	c.Stats.BlockLookups += uint64(len(op.bk.keys))
	c.mcd.GetMultiT(t, op.bk.keys, op.fnGot)
}

// got is the bank-lookup continuation: assemble the hit or fall back to the
// server, exactly as Read does. items is a borrow that ends when this
// returns; the assembled blob copies what it keeps.
func (op *readOp) got(items []*memcache.Item) {
	c := op.c
	hits := countHits(items)
	c.Stats.BlockHits += uint64(hits)
	if hits < len(items) {
		op.sp.SetAttr("result", "miss")
		op.forward()
		return
	}
	data, ok := assembleBlocks(&op.parts, items, op.bk.offsets, op.off, op.size, c.cfg.blockSize())
	if !ok {
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
	op.c.readHist.ObserveSince(t, op.t0)
	op.release()
	k(data, err)
}

// forward is forwardRead for the task engine.
func (op *readOp) forward() {
	c, t := op.c, op.t
	c.Stats.ReadMisses++
	c.fr.Append(t.Now(), flight.KindForward, c.frName, "read", op.size)
	optrace.ClearDeadline(t)
	if !c.cfg.ClientPopulate {
		c.childT().ReadT(t, op.fd, op.off, op.size, op.fnDone)
		return
	}
	alignedOff, alignedSize := alignSpan(op.off, op.size, c.cfg.blockSize())
	op.alignedOff = alignedOff
	c.childT().ReadT(t, op.fd, alignedOff, alignedSize, op.fnFilled)
}

// filled receives client-populate mode's widened server read and pushes its
// blocks to the bank.
func (op *readOp) filled(data blob.Blob, err error) {
	if err != nil {
		op.done(blob.Blob{}, err)
		return
	}
	op.data = data
	op.c.pushBlocksT(op.t, op.path, op.alignedOff, data, op.fnPushed)
}

// pushed slices the caller's range out of the pushed aligned read.
func (op *readOp) pushed() {
	op.done(cutRange(op.data, op.alignedOff, op.off, op.size), nil)
}

// WriteT implements gluster.TaskFS; see Write.
func (c *CMCache) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerCMCache, "write")
	sp.SetAttrInt("bytes", data.Len())
	if !c.cfg.ClientPopulate {
		c.childT().WriteT(t, fd, off, data, func(n int64, err error) {
			sp.End(t)
			k(n, err)
		})
		return
	}
	path, tracked := c.fdPaths[fd]
	statBefore := func(k2 func(oldSize int64)) {
		if !tracked {
			k2(-1)
			return
		}
		c.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
			if serr == nil {
				k2(st.Size)
				return
			}
			k2(-1)
		})
	}
	statBefore(func(oldSize int64) {
		c.childT().WriteT(t, fd, off, data, func(n int64, err error) {
			if err != nil || n == 0 || !tracked {
				sp.End(t)
				k(n, err)
				return
			}
			bs := c.cfg.blockSize()
			alignedOff, alignedSize := alignSpan(off, n, bs)
			c.childT().ReadT(t, fd, alignedOff, alignedSize, func(back blob.Blob, rerr error) {
				if rerr != nil {
					sp.End(t)
					k(n, nil)
					return
				}
				c.pushBlocksT(t, path, alignedOff, back, func() {
					refreshTail := func(k2 func()) {
						// Refresh the old tail block when the file grows
						// past it (see SMCache.Write).
						oldTail := oldSize - oldSize%bs
						if !(oldSize > 0 && oldSize%bs != 0 && off+n > oldSize && alignedOff > oldTail) {
							k2()
							return
						}
						c.childT().ReadT(t, fd, oldTail, bs, func(tb blob.Blob, terr error) {
							if terr != nil {
								k2()
								return
							}
							c.pushBlocksT(t, path, oldTail, tb, k2)
						})
					}
					refreshTail(func() {
						c.childT().StatT(t, path, func(st *gluster.Stat, serr error) {
							if serr != nil {
								sp.End(t)
								k(n, nil)
								return
							}
							c.mcd.SetT(t, c.skeys.get(path), encodeStat(st), func(error) {
								sp.End(t)
								k(n, nil)
							})
						})
					})
				})
			})
		})
	})
}

// pushBlocksT is pushBlocks for the task engine: the blocks store
// sequentially, as the blocking loop does.
func (c *CMCache) pushBlocksT(t *sim.Task, path string, alignedOff int64, data blob.Blob, k func()) {
	c.pushes.push(t, path, alignedOff, data, c.cfg.blockSize(), nil, k)
}

// UnlinkT implements gluster.TaskFS.
func (c *CMCache) UnlinkT(t *sim.Task, path string, k func(error)) {
	c.childT().UnlinkT(t, path, k)
}
