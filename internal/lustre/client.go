package lustre

import (
	"container/list"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ClientPageSize is the client cache granularity.
const ClientPageSize = 4096

// Local kernel-client costs per operation: Lustre has no FUSE crossing,
// so a cached read pays only VFS work and a memory copy.
const (
	ClientOpCPU        = 2 * time.Microsecond
	ClientPerByteNanos = 0.4
)

// contentCache is a byte-bounded LRU of page contents, the client-side
// counterpart of the kernel page cache (it stores data, unlike
// pagecache.Cache which tracks presence for servers that also hold the
// authoritative extents).
type contentCache struct {
	capacity int64
	used     int64
	lru      *list.List // of cacheKey
	pages    map[cacheKey]*cacheEntry
}

type cacheKey struct {
	path string
	idx  int64
}

type cacheEntry struct {
	el   *list.Element
	data blob.Blob // exactly one page, possibly short at EOF
}

func newContentCache(capacity int64) *contentCache {
	return &contentCache{capacity: capacity, lru: list.New(), pages: make(map[cacheKey]*cacheEntry)}
}

func (c *contentCache) get(path string, idx int64) (blob.Blob, bool) {
	e, ok := c.pages[cacheKey{path, idx}]
	if !ok {
		return blob.Blob{}, false
	}
	c.lru.MoveToFront(e.el)
	return e.data, true
}

func (c *contentCache) put(path string, idx int64, data blob.Blob) {
	k := cacheKey{path, idx}
	if e, ok := c.pages[k]; ok {
		c.used += data.Len() - e.data.Len()
		e.data = data
		c.lru.MoveToFront(e.el)
	} else {
		e := &cacheEntry{data: data}
		e.el = c.lru.PushFront(k)
		c.pages[k] = e
		c.used += data.Len()
	}
	for c.used > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		bk := back.Value.(cacheKey)
		c.used -= c.pages[bk].data.Len()
		delete(c.pages, bk)
		c.lru.Remove(back)
	}
}

func (c *contentCache) dropFile(path string) {
	for k, e := range c.pages {
		if k.path == path {
			c.used -= e.data.Len()
			c.lru.Remove(e.el)
			delete(c.pages, k)
		}
	}
}

func (c *contentCache) clear() {
	c.lru.Init()
	c.pages = make(map[cacheKey]*cacheEntry)
	c.used = 0
}

// Client is a Lustre client: a kernel-level file system client (no FUSE
// crossing) with a coherent local page cache.
type Client struct {
	cluster *Cluster
	node    *fabric.Node
	id      int
	cache   *contentCache

	fdPaths map[gluster.FD]string
	nextFD  gluster.FD

	// Stats
	CacheHits, CacheMisses uint64
}

var _ gluster.FS = (*Client)(nil)

// Node returns the fabric node the client runs on.
func (cl *Client) Node() *fabric.Node { return cl.node }

// Register exposes the client page cache's hit counters under prefix
// (e.g. "lc0.cache"), the client-side tier the paper compares the MCD
// bank against.
func (cl *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".hits", func() uint64 { return cl.CacheHits })
	reg.Counter(prefix+".misses", func() uint64 { return cl.CacheMisses })
	reg.Rate(prefix+".hit_rate",
		func() uint64 { return cl.CacheHits },
		func() uint64 { return cl.CacheHits + cl.CacheMisses })
}

// NewClient attaches a client on the given node.
func (c *Cluster) NewClient(node *fabric.Node) *Client {
	cl := &Client{
		cluster: c,
		node:    node,
		id:      len(c.clients),
		cache:   newContentCache(c.cfg.ClientCacheBytes),
		fdPaths: make(map[gluster.FD]string),
	}
	node.Handle("lustre-client", cl.handleCallback)
	c.clients = append(c.clients, cl)
	return cl
}

// handleCallback processes MDS lock-revocation callbacks.
func (cl *Client) handleCallback(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
	r := req.(*revokeMsg)
	cl.cache.dropFile(r.Path)
	return &revokeMsg{Path: ""}
}

// DropCaches simulates unmount/remount: the cold-cache configuration of
// the paper's experiments.
func (cl *Client) DropCaches() {
	cl.cache.clear()
	for _, m := range cl.cluster.files {
		delete(m.holders, cl.id)
	}
}

func (cl *Client) mds(p *sim.Proc, req *mdsReq) *mdsResp {
	req.Client = cl.id
	// No experiment cuts a Lustre cluster's links, and a cut link is the only
	// way a call fails; a nil reply here would mean one did.
	resp, _ := cl.node.Call(p, cl.cluster.mdsNode, "mds", req)
	return resp.(*mdsResp)
}

// Create implements gluster.FS.
func (cl *Client) Create(p *sim.Proc, path string) (gluster.FD, error) {
	r := cl.mds(p, &mdsReq{Op: "create", Path: path})
	if r.Code != "" {
		return 0, mapCode(r.Code)
	}
	cl.nextFD++
	cl.fdPaths[cl.nextFD] = path
	return cl.nextFD, nil
}

// Open implements gluster.FS.
func (cl *Client) Open(p *sim.Proc, path string) (gluster.FD, error) {
	r := cl.mds(p, &mdsReq{Op: "open", Path: path})
	if r.Code != "" {
		return 0, mapCode(r.Code)
	}
	cl.nextFD++
	cl.fdPaths[cl.nextFD] = path
	return cl.nextFD, nil
}

// Close implements gluster.FS. Locks and cached pages persist past close,
// as in Lustre.
func (cl *Client) Close(p *sim.Proc, fd gluster.FD) error {
	if _, ok := cl.fdPaths[fd]; !ok {
		return gluster.ErrBadFD
	}
	delete(cl.fdPaths, fd)
	return nil
}

// stripeFor maps a logical file offset to its OST and object-local offset.
func (cl *Client) stripeFor(off int64) (ostIdx int, objOff int64) {
	ss := StripeSize
	n := int64(len(cl.cluster.osts))
	stripe := off / ss
	within := off % ss
	return int(stripe % n), (stripe/n)*ss + within
}

// ostIO performs a striped read or write of [off, off+size), splitting at
// stripe boundaries and issuing per-OST requests in parallel.
func (cl *Client) ostIO(p *sim.Proc, path string, off int64, data blob.Blob, size int64, write bool) blob.Blob {
	ss := StripeSize
	type piece struct {
		ost        int
		objOff     int64
		logicalOff int64
		size       int64
	}
	var pieces []piece
	remaining := size
	if write {
		remaining = data.Len()
	}
	pos := off
	for remaining > 0 {
		take := ss - pos%ss
		if take > remaining {
			take = remaining
		}
		oi, oo := cl.stripeFor(pos)
		pieces = append(pieces, piece{ost: oi, objOff: oo, logicalOff: pos, size: take})
		pos += take
		remaining -= take
	}
	results := make([]blob.Blob, len(pieces))
	if len(pieces) == 1 {
		pc := pieces[0]
		results[0] = cl.onePieceIO(p, path, pc.ost, pc.objOff, pc.logicalOff-off, pc.size, data, write)
	} else {
		events := make([]*sim.Event, len(pieces))
		for i, pc := range pieces {
			i, pc := i, pc
			ev := sim.NewEvent(p.Env())
			p.Env().Process("lustre-stripe", func(q *sim.Proc) {
				results[i] = cl.onePieceIO(q, path, pc.ost, pc.objOff, pc.logicalOff-off, pc.size, data, write)
				ev.Trigger(nil)
			})
			events[i] = ev
		}
		for _, ev := range events {
			ev.Wait(p)
		}
	}
	if write {
		return blob.Blob{}
	}
	return blob.Concat(results...)
}

func (cl *Client) onePieceIO(p *sim.Proc, path string, ostIdx int, objOff, dataOff, size int64, data blob.Blob, write bool) blob.Blob {
	o := cl.cluster.osts[ostIdx]
	req := &ostReq{Write: write, Path: path, Off: objOff, Size: size}
	if write {
		req.Data = data.Slice(dataOff, dataOff+size)
	}
	m, _ := cl.node.Call(p, o.node, "ost", req)
	resp := m.(*ostResp)
	return resp.Data
}

// Read implements gluster.FS: page-granular, served from the coherent
// local cache when possible.
func (cl *Client) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		return blob.Blob{}, gluster.ErrBadFD
	}
	if err := gluster.CheckRange(off, size); err != nil {
		return blob.Blob{}, err
	}
	cl.node.CPU.Use(p, ClientOpCPU+sim.Duration(float64(size)*ClientPerByteNanos))
	st := cl.mdsStatCached(p, path)
	if st == nil {
		return blob.Blob{}, gluster.ErrNotExist
	}
	if off >= st.Size {
		return blob.Blob{}, nil
	}
	if off+size > st.Size {
		size = st.Size - off
	}

	// Register as a cache holder (the read lock).
	if m := cl.cluster.files[path]; m != nil {
		m.holders[cl.id] = cl
	}

	firstPage := off / ClientPageSize
	lastPage := (off + size - 1) / ClientPageSize
	var parts []blob.Blob
	// Fetch contiguous runs of missing pages in single OST requests.
	runStart := int64(-1)
	flushRun := func(endPage int64) {
		if runStart < 0 {
			return
		}
		lo := runStart * ClientPageSize
		hi := (endPage + 1) * ClientPageSize
		if hi > st.Size {
			hi = st.Size
		}
		data := cl.ostIO(p, path, lo, blob.Blob{}, hi-lo, false)
		for pg := runStart; pg <= endPage; pg++ {
			plo := pg*ClientPageSize - lo
			phi := plo + ClientPageSize
			if phi > data.Len() {
				phi = data.Len()
			}
			if plo >= phi {
				break
			}
			cl.cache.put(path, pg, data.Slice(plo, phi))
		}
		runStart = -1
	}
	for pg := firstPage; pg <= lastPage; pg++ {
		if _, hit := cl.cache.get(path, pg); hit {
			cl.CacheHits++
			flushRun(pg - 1)
		} else {
			cl.CacheMisses++
			if runStart < 0 {
				runStart = pg
			}
		}
	}
	flushRun(lastPage)

	// Assemble from the now-complete cache.
	for pg := firstPage; pg <= lastPage; pg++ {
		page, hit := cl.cache.get(path, pg)
		if !hit {
			break // EOF page beyond data
		}
		lo := int64(0)
		if pg == firstPage {
			lo = off - pg*ClientPageSize
		}
		hi := page.Len()
		if end := off + size - pg*ClientPageSize; end < hi {
			hi = end
		}
		if lo >= hi {
			break
		}
		parts = append(parts, page.Slice(lo, hi))
	}
	return blob.Concat(parts...), nil
}

// mdsStatCached returns the file's metadata. Attribute reads hit the MDS
// only when the client holds no pages (a coarse model of Lustre's
// attribute caching under locks).
func (cl *Client) mdsStatCached(p *sim.Proc, path string) *gluster.Stat {
	m := cl.cluster.files[path]
	if m == nil {
		return nil
	}
	if _, holding := m.holders[cl.id]; holding {
		return cl.cluster.statOf(path, m) // attributes valid under lock
	}
	r := cl.mds(p, &mdsReq{Op: "stat", Path: path})
	if r.Code != "" {
		return nil
	}
	return r.St
}

// Write implements gluster.FS: write-through to the OSTs, with other
// clients' caches revoked first (writes are flushed before locks are
// released, so readers always see completed writes).
func (cl *Client) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		return 0, gluster.ErrBadFD
	}
	if err := gluster.CheckRange(off, data.Len()); err != nil {
		return 0, err
	}
	cl.node.CPU.Use(p, ClientOpCPU+sim.Duration(float64(data.Len())*ClientPerByteNanos))
	m := cl.cluster.files[path]
	if m == nil {
		return 0, gluster.ErrNotExist
	}
	// Acquire the write lock: MDS revokes all other holders.
	_, _ = cl.node.Call(p, cl.cluster.mdsNode, "mds-lock", &lockReq{Path: path, Client: cl.id, Write: true})

	cl.ostIO(p, path, off, data, 0, true)

	// Update our own cached pages covering the write.
	first := off / ClientPageSize
	last := (off + data.Len() - 1) / ClientPageSize
	for pg := first; pg <= last; pg++ {
		if e, okc := cl.cache.pages[cacheKey{path, pg}]; okc && e != nil {
			lo := pg * ClientPageSize
			hi := lo + ClientPageSize
			plo, phi := maxI(off, lo), minI(off+data.Len(), hi)
			if plo < phi {
				// Patch the cached page with the written range.
				page := e.data
				var parts []blob.Blob
				if plo > lo {
					parts = append(parts, page.Slice(0, plo-lo))
				}
				parts = append(parts, data.Slice(plo-off, phi-off))
				if phi-lo < page.Len() {
					parts = append(parts, page.Slice(phi-lo, page.Len()))
				}
				e.data = blob.Concat(parts...)
			}
		}
	}
	m.holders[cl.id] = cl

	// Size/mtime update at the MDS.
	cl.mds(p, &mdsReq{Op: "setattr", Path: path, Size: off + data.Len(), Mtime: cl.cluster.env.Now()})
	return data.Len(), nil
}

// Stat implements gluster.FS.
func (cl *Client) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	r := cl.mds(p, &mdsReq{Op: "stat", Path: path})
	if r.Code != "" {
		return nil, mapCode(r.Code)
	}
	return r.St, nil
}

// Unlink implements gluster.FS.
func (cl *Client) Unlink(p *sim.Proc, path string) error {
	r := cl.mds(p, &mdsReq{Op: "unlink", Path: path})
	cl.cache.dropFile(path)
	return mapCode(r.Code)
}

// Mkdir implements gluster.FS.
func (cl *Client) Mkdir(p *sim.Proc, path string) error {
	r := cl.mds(p, &mdsReq{Op: "mkdir", Path: path})
	return mapCode(r.Code)
}

// Readdir implements gluster.FS.
func (cl *Client) Readdir(p *sim.Proc, path string) ([]string, error) {
	r := cl.mds(p, &mdsReq{Op: "readdir", Path: path})
	return r.Names, mapCode(r.Code)
}

// Truncate implements gluster.FS (metadata-only in this model).
func (cl *Client) Truncate(p *sim.Proc, path string, size int64) error {
	if err := gluster.CheckRange(0, size); err != nil {
		return err
	}
	m := cl.cluster.files[path]
	if m == nil {
		return gluster.ErrNotExist
	}
	cl.cache.dropFile(path)
	r := cl.mds(p, &mdsReq{Op: "setattr", Path: path, Size: size, Exact: true, Mtime: cl.cluster.env.Now()})
	return mapCode(r.Code)
}

func mapCode(code string) error {
	switch code {
	case "":
		return nil
	case "ENOENT":
		return gluster.ErrNotExist
	case "EEXIST":
		return gluster.ErrExist
	default:
		return gluster.ErrBadFD
	}
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
