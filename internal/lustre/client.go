package lustre

import (
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/pagecache"
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

// pageKey names one page of the client cache: the file's MDS inode and the
// page's index.
type pageKey struct {
	ino uint64
	idx int64
}

// Client is a Lustre client: a kernel-level file system client (no FUSE
// crossing) with a coherent local page cache.
type Client struct {
	cluster *Cluster
	node    *fabric.Node
	id      int
	// cache decides which pages are resident and which goes next, like
	// every server's; pages holds the contents of exactly the resident
	// ones. A page at EOF may be short: past its end the file reads as
	// zeros.
	cache *pagecache.Cache
	pages map[pageKey]blob.Blob
	// revokes counts the callbacks served: a fetch a revoke overtook
	// returns its bytes but caches none of them.
	revokes uint64

	fdPaths map[gluster.FD]string
	nextFD  gluster.FD
}

var _ gluster.FS = (*Client)(nil)

// Node returns the fabric node the client runs on.
func (cl *Client) Node() *fabric.Node { return cl.node }

// Register exposes the client page cache's hit counters under prefix
// (e.g. "lc0.cache"), the client-side tier the paper compares the MCD
// bank against.
func (cl *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".hits", func() uint64 { return cl.cache.Hits })
	reg.Counter(prefix+".misses", func() uint64 { return cl.cache.Misses })
	reg.Rate(prefix+".hit_rate",
		func() uint64 { return cl.cache.Hits },
		func() uint64 { return cl.cache.Hits + cl.cache.Misses })
}

// NewClient attaches a client on the given node.
func (c *Cluster) NewClient(node *fabric.Node) *Client {
	cl := &Client{
		cluster: c,
		node:    node,
		id:      len(c.clients),
		cache:   pagecache.New(c.cfg.ClientCacheBytes, ClientPageSize),
		pages:   make(map[pageKey]blob.Blob),
		fdPaths: make(map[gluster.FD]string),
	}
	cl.cache.OnRemove = func(ino uint64, idx int64) { delete(cl.pages, pageKey{ino, idx}) }
	node.Handle("lustre-client", cl.handleCallback)
	c.clients = append(c.clients, cl)
	return cl
}

// handleCallback processes MDS lock-revocation callbacks.
func (cl *Client) handleCallback(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
	cl.revokes++
	cl.cache.InvalidateFile(req.(*revokeMsg).Ino)
	return &revokeMsg{}
}

// DropCaches simulates unmount/remount: the cold-cache configuration of
// the paper's experiments.
func (cl *Client) DropCaches() {
	cl.cache.Clear()
	clear(cl.pages)
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
	return cl.open(p, "create", path)
}

// Open implements gluster.FS.
func (cl *Client) Open(p *sim.Proc, path string) (gluster.FD, error) {
	return cl.open(p, "open", path)
}

// open asks the MDS to create or open path and hands out a descriptor.
func (cl *Client) open(p *sim.Proc, op, path string) (gluster.FD, error) {
	if r := cl.mds(p, &mdsReq{Op: op, Path: path}); r.Code != "" {
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
	n, stripe := int64(len(cl.cluster.osts)), off/StripeSize
	return int(stripe % n), stripe/n*StripeSize + off%StripeSize
}

// ostCall is one request to the OST it names.
type ostCall struct {
	ost int
	req *ostReq
}

// ostIO performs a striped read or write of [off, off+size) of file ino,
// splitting at stripe boundaries and issuing per-OST requests in parallel.
// A read comes back whole: past the end of an object the file is a hole,
// and the client fills it with zeros, as Lustre's does a short OST read.
func (cl *Client) ostIO(p *sim.Proc, path string, ino uint64, off int64, data blob.Blob, size int64, write bool) blob.Blob {
	if write {
		size = data.Len()
	}
	var calls []ostCall
	for pos := off; pos < off+size; {
		take := min(StripeSize-pos%StripeSize, off+size-pos)
		oi, oo := cl.stripeFor(pos)
		req := &ostReq{Write: write, Path: path, Ino: ino, Off: oo, Size: take}
		if write {
			req.Data = data.Slice(pos-off, pos-off+take)
		}
		calls = append(calls, ostCall{oi, req})
		pos += take
	}
	results := cl.callOSTs(p, calls)
	if write {
		return blob.Blob{}
	}
	for i, c := range calls {
		if n := results[i].Len(); n < c.req.Size {
			results[i] = blob.Concat(results[i], blob.Zeros(c.req.Size-n))
		}
	}
	return blob.Concat(results...)
}

// callOSTs sends each call's request to its OST, one process a call when
// there are several, and returns the replies' data in call order.
func (cl *Client) callOSTs(p *sim.Proc, calls []ostCall) []blob.Blob {
	results := make([]blob.Blob, len(calls))
	call := func(q *sim.Proc, i int) {
		m, _ := cl.node.Call(q, cl.cluster.osts[calls[i].ost].node, "ost", calls[i].req)
		results[i] = m.(*ostResp).Data
	}
	if len(calls) == 1 {
		call(p, 0)
		return results
	}
	events := make([]*sim.Event, len(calls))
	for i := range calls {
		ev := sim.NewEvent(p.Env())
		p.Env().Process("lustre-stripe", func(q *sim.Proc) {
			call(q, i)
			ev.Trigger(nil)
		})
		events[i] = ev
	}
	for _, ev := range events {
		ev.Wait(p)
	}
	return results
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
	size = min(size, st.Size-off)

	// Register as a cache holder (the read lock).
	if m := cl.cluster.files[path]; m != nil {
		m.holders[cl.id] = cl
	}

	// The pages that hit are copied out first: a fetch yields, and a
	// revoke or this read's own inserts may drop them meanwhile. Then
	// each run of missing pages is one OST request, in order.
	ino, end, revokes := st.Ino, off+size, cl.revokes
	missing := cl.cache.Lookup(ino, off, size)
	parts := make([]blob.Blob, 0, 2*len(missing)+1)
	slots := make([]int, len(missing)) // each run's place in parts
	pos := off
	for i, r := range missing {
		parts = cl.appendCached(parts, ino, pos, r.Off)
		slots[i] = len(parts)
		parts = append(parts, blob.Blob{})
		pos = min(r.End(), end)
	}
	parts = cl.appendCached(parts, ino, pos, end)
	for i, r := range missing {
		data := cl.ostIO(p, path, ino, r.Off, blob.Blob{}, min(r.End(), st.Size)-r.Off, false)
		if cl.revokes == revokes {
			cl.fill(ino, r.Off, data)
		}
		parts[slots[i]] = data.Slice(max(off, r.Off)-r.Off, min(end, r.Off+data.Len())-r.Off)
	}
	return blob.Concat(parts...), nil
}

// appendCached appends bytes [from, to) of file ino, every page of which
// is resident, a page at a time.
func (cl *Client) appendCached(parts []blob.Blob, ino uint64, from, to int64) []blob.Blob {
	for from < to {
		idx := from / ClientPageSize
		base := idx * ClientPageSize
		hi := min(to, base+ClientPageSize)
		parts = append(parts, window(cl.pages[pageKey{ino, idx}], from-base, hi-base))
		from = hi
	}
	return parts
}

// window returns bytes [lo, hi) of a cached page. A page short at EOF
// stays short when this client's own write extends the file past it (any
// other writer revokes it), so past its end the file is a hole: zeros.
func window(page blob.Blob, lo, hi int64) blob.Blob {
	n := page.Len()
	if hi <= n {
		return page.Slice(lo, hi)
	}
	return blob.Concat(page.Slice(min(lo, n), n), blob.Zeros(hi-max(lo, n)))
}

// fill caches the pages of data, read from page-aligned offset off of
// ino. A run longer than the cache leaves only the pages Insert kept.
func (cl *Client) fill(ino uint64, off int64, data blob.Blob) {
	cl.cache.Insert(ino, off, data.Len())
	for lo := int64(0); lo < data.Len(); lo += ClientPageSize {
		if cl.cache.Contains(ino, off+lo, 1) {
			cl.pages[pageKey{ino, (off + lo) / ClientPageSize}] = data.Slice(lo, min(lo+ClientPageSize, data.Len()))
		}
	}
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
	if data.Len() == 0 {
		return 0, nil // as on a brick: an empty write changes nothing, the size included
	}
	cl.node.CPU.Use(p, ClientOpCPU+sim.Duration(float64(data.Len())*ClientPerByteNanos))
	m := cl.cluster.files[path]
	if m == nil {
		return 0, gluster.ErrNotExist
	}
	// Acquire the write lock: MDS revokes all other holders.
	_, _ = cl.node.Call(p, cl.cluster.mdsNode, "mds-lock", &lockReq{Path: path, Client: cl.id, Write: true})

	cl.ostIO(p, path, m.ino, off, data, 0, true)

	// Patch our own cached pages the write covers.
	for idx := off / ClientPageSize; idx*ClientPageSize < off+data.Len(); idx++ {
		k := pageKey{m.ino, idx}
		page, cached := cl.pages[k]
		base := idx * ClientPageSize
		lo, hi := max(off, base)-base, min(off+data.Len(), base+ClientPageSize)-base
		if !cached || lo >= hi {
			continue
		}
		tail := page.Slice(min(hi, page.Len()), page.Len())
		cl.pages[k] = blob.Concat(window(page, 0, lo), data.Slice(base+lo-off, base+hi-off), tail)
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

// Unlink implements gluster.FS. The MDS revokes the other holders' pages.
func (cl *Client) Unlink(p *sim.Proc, path string) error {
	if m := cl.cluster.files[path]; m != nil {
		cl.cache.InvalidateFile(m.ino)
	}
	return mapCode(cl.mds(p, &mdsReq{Op: "unlink", Path: path}).Code)
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

// Truncate implements gluster.FS: the MDS sets the size and revokes the
// other holders' pages, then every OST cuts (or extends) its object to its
// share of the new size.
func (cl *Client) Truncate(p *sim.Proc, path string, size int64) error {
	if err := gluster.CheckRange(0, size); err != nil {
		return err
	}
	m := cl.cluster.files[path]
	if m == nil {
		return gluster.ErrNotExist
	}
	cl.cache.InvalidateFile(m.ino)
	r := cl.mds(p, &mdsReq{Op: "setattr", Path: path, Size: size, Exact: true, Mtime: cl.cluster.env.Now()})
	if r.Code != "" {
		return mapCode(r.Code)
	}
	// Byte size would land on OST at, at object offset end: in that
	// round of stripes the OSTs before it keep a whole one, those after
	// none.
	at, end := cl.stripeFor(size)
	round := end - end%StripeSize
	calls := make([]ostCall, len(cl.cluster.osts))
	for i := range calls {
		objSize := round
		switch {
		case i < at:
			objSize += StripeSize
		case i == at:
			objSize = end
		}
		calls[i] = ostCall{i, &ostReq{Punch: true, Path: path, Ino: m.ino, Size: objSize}}
	}
	cl.callOSTs(p, calls)
	return nil
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
