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
// crossing) with a coherent local page cache. Every operation is written
// once, in continuation style; the embedded Blocking derives the blocking
// FS methods from those.
type Client struct {
	gluster.Blocking
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

var _ gluster.TaskFS = (*Client)(nil)

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
	cl.Blocking = gluster.NewBlocking(cl)
	cl.cache.OnRemove = func(ino uint64, idx int64) { delete(cl.pages, pageKey{ino, idx}) }
	node.HandleT("lustre-client", cl.handleCallback)
	c.clients = append(c.clients, cl)
	return cl
}

// handleCallback processes MDS lock-revocation callbacks.
func (cl *Client) handleCallback(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	cl.revokes++
	cl.cache.InvalidateFile(req.(*revokeMsg).Ino)
	respond(&revokeMsg{})
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

// mds sends req to the metadata server and hands k the reply.
func (cl *Client) mds(t *sim.Task, req *mdsReq, k func(*mdsResp)) {
	req.Client = cl.id
	// No experiment cuts a Lustre cluster's links, and a cut link is the only
	// way a call fails; a nil reply here would mean one did.
	cl.node.CallT(t, cl.cluster.mdsNode, "mds", req, func(m fabric.Msg, _ error) { k(m.(*mdsResp)) })
}

// CreateT implements gluster.TaskFS.
func (cl *Client) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	cl.open(t, "create", path, k)
}

// OpenT implements gluster.TaskFS.
func (cl *Client) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	cl.open(t, "open", path, k)
}

// open asks the MDS to create or open path and hands out a descriptor.
func (cl *Client) open(t *sim.Task, op, path string, k func(gluster.FD, error)) {
	cl.mds(t, &mdsReq{Op: op, Path: path}, func(r *mdsResp) {
		if r.Code != "" {
			k(0, mapCode(r.Code))
			return
		}
		cl.nextFD++
		cl.fdPaths[cl.nextFD] = path
		k(cl.nextFD, nil)
	})
}

// CloseT implements gluster.TaskFS. Locks and cached pages persist past
// close, as in Lustre.
func (cl *Client) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	if _, ok := cl.fdPaths[fd]; !ok {
		k(gluster.ErrBadFD)
		return
	}
	delete(cl.fdPaths, fd)
	k(nil)
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
// splitting at stripe boundaries and issuing per-OST requests in parallel,
// and hands k what a read returned. A read comes back whole: past the end
// of an object the file is a hole, and the client fills it with zeros, as
// Lustre's does a short OST read.
func (cl *Client) ostIO(t *sim.Task, path string, ino uint64, off int64, data blob.Blob, size int64, write bool, k func(blob.Blob)) {
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
	cl.callOSTs(t, calls, func(results []blob.Blob) {
		if write {
			k(blob.Blob{})
			return
		}
		for i, c := range calls {
			if n := results[i].Len(); n < c.req.Size {
				results[i] = blob.Concat(results[i], blob.Zeros(c.req.Size-n))
			}
		}
		k(blob.Concat(results...))
	})
}

// callOSTs sends each call's request to its OST, one task a call when
// there are several, and hands k the replies' data in call order.
func (cl *Client) callOSTs(t *sim.Task, calls []ostCall, k func([]blob.Blob)) {
	results := make([]blob.Blob, len(calls))
	call := func(a *sim.Task, i int, k func()) {
		cl.node.CallT(a, cl.cluster.osts[calls[i].ost].node, "ost", calls[i].req, func(m fabric.Msg, _ error) {
			results[i] = m.(*ostResp).Data
			k()
		})
	}
	if len(calls) == 1 {
		call(t, 0, func() { k(results) })
		return
	}
	stripes := make([]*sim.Event, len(calls))
	for i := range calls {
		stripes[i] = t.Env().StartTask("lustre-stripe", func(s *sim.Task) { call(s, i, s.End) }).Done()
	}
	// Wait on each stripe in call order.
	var wait func()
	wait = func() {
		if len(stripes) == 0 {
			k(results)
			return
		}
		ev := stripes[0]
		stripes = stripes[1:]
		ev.WaitFn(wait)
	}
	wait()
}

// ReadT implements gluster.TaskFS: page-granular, served from the coherent
// local cache when possible.
func (cl *Client) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		k(blob.Blob{}, gluster.ErrBadFD)
		return
	}
	if err := gluster.CheckRange(off, size); err != nil {
		k(blob.Blob{}, err)
		return
	}
	cl.node.CPU.UseT(t, ClientOpCPU+sim.Duration(float64(size)*ClientPerByteNanos), func() {
		cl.mdsStatCached(t, path, func(st *gluster.Stat) {
			if st == nil {
				k(blob.Blob{}, gluster.ErrNotExist)
				return
			}
			if off >= st.Size {
				k(blob.Blob{}, nil)
				return
			}
			cl.read(t, path, st, off, min(size, st.Size-off), k)
		})
	})
}

// read serves [off, off+size) of the file st describes, all of it within
// the file.
func (cl *Client) read(t *sim.Task, path string, st *gluster.Stat, off, size int64, k func(blob.Blob, error)) {
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
	i := 0
	var fetch func()
	fetch = func() {
		if i == len(missing) {
			k(blob.Concat(parts...), nil)
			return
		}
		r := missing[i]
		cl.ostIO(t, path, ino, r.Off, blob.Blob{}, min(r.End(), st.Size)-r.Off, false, func(data blob.Blob) {
			if cl.revokes == revokes {
				cl.fill(ino, r.Off, data)
			}
			parts[slots[i]] = data.Slice(max(off, r.Off)-r.Off, min(end, r.Off+data.Len())-r.Off)
			i++
			fetch()
		})
	}
	fetch()
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

// mdsStatCached hands k the file's metadata, or nil when it does not
// exist. Attribute reads hit the MDS only when the client holds no pages
// (a coarse model of Lustre's attribute caching under locks).
func (cl *Client) mdsStatCached(t *sim.Task, path string, k func(*gluster.Stat)) {
	m := cl.cluster.files[path]
	if m == nil {
		k(nil)
		return
	}
	if _, holding := m.holders[cl.id]; holding {
		k(cl.cluster.statOf(path, m)) // attributes valid under lock
		return
	}
	cl.mds(t, &mdsReq{Op: "stat", Path: path}, func(r *mdsResp) {
		if r.Code != "" {
			k(nil)
			return
		}
		k(r.St)
	})
}

// WriteT implements gluster.TaskFS: write-through to the OSTs, with other
// clients' caches revoked first (writes are flushed before locks are
// released, so readers always see completed writes).
func (cl *Client) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	path, ok := cl.fdPaths[fd]
	if !ok {
		k(0, gluster.ErrBadFD)
		return
	}
	if err := gluster.CheckRange(off, data.Len()); err != nil {
		k(0, err)
		return
	}
	if data.Len() == 0 {
		k(0, nil) // as on a brick: an empty write changes nothing, the size included
		return
	}
	cl.node.CPU.UseT(t, ClientOpCPU+sim.Duration(float64(data.Len())*ClientPerByteNanos), func() {
		m := cl.cluster.files[path]
		if m == nil {
			k(0, gluster.ErrNotExist)
			return
		}
		// Acquire the write lock: MDS revokes all other holders.
		cl.node.CallT(t, cl.cluster.mdsNode, "mds-lock", &lockReq{Path: path, Client: cl.id, Write: true}, func(fabric.Msg, error) {
			cl.ostIO(t, path, m.ino, off, data, 0, true, func(blob.Blob) {
				cl.patch(m, off, data)
				// Size/mtime update at the MDS.
				cl.mds(t, &mdsReq{Op: "setattr", Path: path, Size: off + data.Len(), Mtime: cl.cluster.env.Now()}, func(*mdsResp) {
					k(data.Len(), nil)
				})
			})
		})
	})
}

// patch updates this client's own cached pages of m that a write of data
// at off covers, and registers the client as a holder.
func (cl *Client) patch(m *meta, off int64, data blob.Blob) {
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
}

// StatT implements gluster.TaskFS.
func (cl *Client) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	cl.mds(t, &mdsReq{Op: "stat", Path: path}, func(r *mdsResp) {
		if r.Code != "" {
			k(nil, mapCode(r.Code))
			return
		}
		k(r.St, nil)
	})
}

// UnlinkT implements gluster.TaskFS. The MDS revokes the other holders'
// pages.
func (cl *Client) UnlinkT(t *sim.Task, path string, k func(error)) {
	if m := cl.cluster.files[path]; m != nil {
		cl.cache.InvalidateFile(m.ino)
	}
	cl.mds(t, &mdsReq{Op: "unlink", Path: path}, func(r *mdsResp) { k(mapCode(r.Code)) })
}

// MkdirT implements gluster.TaskFS.
func (cl *Client) MkdirT(t *sim.Task, path string, k func(error)) {
	cl.mds(t, &mdsReq{Op: "mkdir", Path: path}, func(r *mdsResp) { k(mapCode(r.Code)) })
}

// ReaddirT implements gluster.TaskFS.
func (cl *Client) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	cl.mds(t, &mdsReq{Op: "readdir", Path: path}, func(r *mdsResp) { k(r.Names, mapCode(r.Code)) })
}

// TruncateT implements gluster.TaskFS: the MDS sets the size and revokes
// the other holders' pages, then every OST cuts (or extends) its object to
// its share of the new size.
func (cl *Client) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	if err := gluster.CheckRange(0, size); err != nil {
		k(err)
		return
	}
	m := cl.cluster.files[path]
	if m == nil {
		k(gluster.ErrNotExist)
		return
	}
	cl.cache.InvalidateFile(m.ino)
	cl.mds(t, &mdsReq{Op: "setattr", Path: path, Size: size, Exact: true, Mtime: cl.cluster.env.Now()}, func(r *mdsResp) {
		if r.Code != "" {
			k(mapCode(r.Code))
			return
		}
		// Byte size would land on OST at, at object offset end: in that
		// round of stripes the OSTs before it keep a whole one, those
		// after none.
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
		cl.callOSTs(t, calls, func([]blob.Blob) { k(nil) })
	})
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
