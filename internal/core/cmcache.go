package core

import (
	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
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
	child gluster.FS
	mcd   *memcache.SimClient
	cfg   Config

	// fdPaths is the paper's client-side "database" recording the
	// absolute path stored at Open for later Read key construction.
	fdPaths map[gluster.FD]string
	// skeys interns stat-structure MCD keys so the stat hot path does not
	// rebuild "<path>:stat" per operation. Private by default; deployments
	// share one table across all translators via ShareStatKeys.
	skeys *KeyInterner
	// statOps and readOps pool StatT's and ReadT's per-operation frames;
	// pushes pools the block-push frames of client-populate mode.
	statOps []*statOp
	readOps []*readOp
	pushes  pushPool

	Stats CMCacheStats

	// Stat/Read latency distributions, registered by Register; nil no-ops
	// otherwise.
	statHist, readHist *telemetry.Hist
	// fr records layer transitions (stat and read misses forwarded to the
	// server) under frName when attached via SetFlight.
	fr     *flight.Recorder
	frName string
}

var _ gluster.FS = (*CMCache)(nil)

// NewCMCache wraps child with the client translator using the given MCD
// bank client.
func NewCMCache(child gluster.FS, mcd *memcache.SimClient, cfg Config) *CMCache {
	return &CMCache{
		child:   child,
		mcd:     mcd,
		cfg:     cfg,
		fdPaths: make(map[gluster.FD]string),
		skeys:   NewKeyInterner(),
		pushes:  pushPool{mcd: mcd},
	}
}

// ShareStatKeys replaces the translator's private stat-key intern table
// with a deployment-wide one; see KeyInterner.
func (c *CMCache) ShareStatKeys(in *KeyInterner) { c.skeys = in }

// Bank returns the MCD bank client (for stats inspection).
func (c *CMCache) Bank() *memcache.SimClient { return c.mcd }

// SetFlight attaches a flight recorder under the given actor name: every
// miss this translator forwards down to the server appends one record.
// The bank client records its own deadline/ejection transitions, so it is
// wired here too.
func (c *CMCache) SetFlight(rec *flight.Recorder, name string) {
	c.fr = rec
	c.frName = name
	c.mcd.SetFlight(rec)
}

// Create implements gluster.FS; create operations offer no caching
// opportunity and are forwarded directly (paper §4.2).
func (c *CMCache) Create(p *sim.Proc, path string) (gluster.FD, error) {
	fd, err := c.child.Create(p, path)
	if err == nil {
		c.fdPaths[fd] = path
	}
	return fd, err
}

// Open implements gluster.FS, recording the path↔fd association.
func (c *CMCache) Open(p *sim.Proc, path string) (gluster.FD, error) {
	fd, err := c.child.Open(p, path)
	if err == nil {
		c.fdPaths[fd] = path
	}
	return fd, err
}

// Close implements gluster.FS; closes propagate directly to the server.
func (c *CMCache) Close(p *sim.Proc, fd gluster.FD) error {
	delete(c.fdPaths, fd)
	return c.child.Close(p, fd)
}

// Stat implements gluster.FS: it first attempts to fetch the stat
// structure from the MCD bank and falls back to the server on a miss. Any
// cache-budget deadline is spent once the bank answers (or fails to): the
// server fallback must complete.
func (c *CMCache) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	sp := optrace.StartSpan(p, optrace.LayerCMCache, "stat")
	defer sp.End(p)
	defer c.statHist.ObserveSince(p, p.Now())
	if it, ok := c.mcd.Get(p, c.skeys.get(path)); ok {
		if st, err := decodeStat(it.Value); err == nil {
			c.Stats.StatHits++
			sp.SetAttr("result", "hit")
			return st, nil
		}
	}
	c.Stats.StatMisses++
	sp.SetAttr("result", "miss")
	c.fr.Append(p.Now(), flight.KindForward, c.frName, "stat", 0)
	optrace.ClearDeadline(p)
	return c.child.Stat(p, path)
}

// Read implements gluster.FS. The path stored at Open plus each covering
// aligned block offset form the MCD keys; if every covering block is
// present the read is assembled locally, otherwise the entire read is
// forwarded to the server (making cold misses more expensive than the
// native file system, as the paper notes).
func (c *CMCache) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	if size <= 0 {
		return blob.Blob{}, nil
	}
	path, ok := c.fdPaths[fd]
	if !ok {
		// Descriptor not opened through this translator; pass through.
		return c.child.Read(p, fd, off, size)
	}
	sp := optrace.StartSpan(p, optrace.LayerCMCache, "read")
	sp.SetAttrInt("bytes", size)
	defer sp.End(p)
	defer c.readHist.ObserveSince(p, p.Now())
	bs := c.cfg.blockSize()
	var bk blockKeys
	bk.build(path, off, size, bs)
	c.Stats.BlockLookups += uint64(len(bk.keys))
	items := c.mcd.GetMulti(p, bk.keys)
	hits := countHits(items)
	c.Stats.BlockHits += uint64(hits)
	if hits < len(items) {
		sp.SetAttr("result", "miss")
		return c.forwardRead(p, fd, path, off, size)
	}

	var parts []blob.Blob
	data, ok := assembleBlocks(&parts, items, bk.offsets, off, size, bs)
	if !ok {
		// Mid-range EOF claim contradicted by the blocks after it.
		sp.SetAttr("result", "short-miss")
		return c.forwardRead(p, fd, path, off, size)
	}
	c.Stats.ReadHits++
	sp.SetAttr("result", "hit")
	return data, nil
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
// server. Pure block arithmetic — shared by both client engines. scratch
// collects the pieces; a pooled caller passes a slice that keeps its
// capacity.
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

// forwardRead satisfies a read from the server after the MCD bank could
// not. The cache-budget deadline (if any) is spent: the server path is
// authoritative and must complete.
func (c *CMCache) forwardRead(p *sim.Proc, fd gluster.FD, path string, off, size int64) (blob.Blob, error) {
	c.Stats.ReadMisses++
	c.fr.Append(p.Now(), flight.KindForward, c.frName, "read", size)
	optrace.ClearDeadline(p)
	if !c.cfg.ClientPopulate {
		return c.child.Read(p, fd, off, size)
	}
	// Client-populate mode: widen to block alignment, push the fetched
	// blocks ourselves, and return the requested slice.
	bs := c.cfg.blockSize()
	alignedOff, alignedSize := alignSpan(off, size, bs)
	data, err := c.child.Read(p, fd, alignedOff, alignedSize)
	if err != nil {
		return blob.Blob{}, err
	}
	c.pushBlocks(p, path, alignedOff, data)
	return cutRange(data, alignedOff, off, size), nil
}

// Write implements gluster.FS; CMCache does not intercept writes — they
// must be persistent, so they go straight to the server (paper §4.3.2).
// In client-populate mode the completed write's aligned span is re-read
// and pushed to the MCD bank, mirroring what SMCache does server-side.
func (c *CMCache) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	sp := optrace.StartSpan(p, optrace.LayerCMCache, "write")
	sp.SetAttrInt("bytes", data.Len())
	defer sp.End(p)
	if !c.cfg.ClientPopulate {
		return c.child.Write(p, fd, off, data)
	}
	path, tracked := c.fdPaths[fd]
	oldSize := int64(-1)
	if tracked {
		if st, serr := c.child.Stat(p, path); serr == nil {
			oldSize = st.Size
		}
	}
	n, err := c.child.Write(p, fd, off, data)
	if err != nil || n == 0 || !tracked {
		return n, err
	}
	bs := c.cfg.blockSize()
	alignedOff, alignedSize := alignSpan(off, n, bs)
	back, rerr := c.child.Read(p, fd, alignedOff, alignedSize)
	if rerr == nil {
		c.pushBlocks(p, path, alignedOff, back)
		// Refresh the old tail block when the file grows past it (see
		// SMCache.Write).
		if oldTail := oldSize - oldSize%bs; oldSize > 0 && oldSize%bs != 0 &&
			off+n > oldSize && alignedOff > oldTail {
			if tb, terr := c.child.Read(p, fd, oldTail, bs); terr == nil {
				c.pushBlocks(p, path, oldTail, tb)
			}
		}
		if st, serr := c.child.Stat(p, path); serr == nil {
			_ = c.mcd.Set(p, c.skeys.get(path), encodeStat(st))
		}
	}
	return n, nil
}

// pushBlocks splits aligned data into blocks and stores each in the bank.
func (c *CMCache) pushBlocks(p *sim.Proc, path string, alignedOff int64, data blob.Blob) {
	bs := c.cfg.blockSize()
	for pos := int64(0); pos < data.Len(); pos += bs {
		end := pos + bs
		if end > data.Len() {
			end = data.Len()
		}
		_ = c.mcd.Set(p, blockKey(path, alignedOff+pos), data.Slice(pos, end))
	}
}

// Unlink implements gluster.FS; deletes are forwarded without
// interception (the server-side translator purges the MCD entries).
func (c *CMCache) Unlink(p *sim.Proc, path string) error {
	return c.child.Unlink(p, path)
}

// Mkdir implements gluster.FS.
func (c *CMCache) Mkdir(p *sim.Proc, path string) error { return c.child.Mkdir(p, path) }

// Readdir implements gluster.FS.
func (c *CMCache) Readdir(p *sim.Proc, path string) ([]string, error) {
	return c.child.Readdir(p, path)
}

// Truncate implements gluster.FS.
func (c *CMCache) Truncate(p *sim.Proc, path string, size int64) error {
	return c.child.Truncate(p, path, size)
}
