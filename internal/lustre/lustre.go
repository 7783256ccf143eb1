// Package lustre implements a Lustre-like parallel file system baseline:
// one metadata server (MDS), data striped across object storage targets
// (OSTs), and a coherent client-side page cache kept consistent by
// MDS-granted locks that are revoked when another client writes.
//
// It is the comparison system of the reproduced paper (Lustre 1.6 with 1 or
// 4 data servers, warm or cold client cache). Clients implement gluster.FS,
// so every workload driver runs unchanged against GlusterFS, IMCa, and
// Lustre.
//
// The testbed's service costs, thread counts, stripe and client page size
// are package constants (MODEL.md lists them); a deployment's Config sets
// only what an experiment varies: the OST count and the cache sizes.
package lustre

import (
	"fmt"
	"sort"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Config sizes a Lustre deployment: the data servers and the caches.
type Config struct {
	// OSTs is the number of data servers (the paper's "DS" count). Each
	// has disk.HighPointDisks / OSTs HighPoint disks (at least one), so
	// the deployment's spindle count matches the GlusterFS server's array.
	OSTs int
	// OSTCacheBytes bounds each OST's server-side page cache.
	OSTCacheBytes int64
	// ClientCacheBytes bounds each client's local page cache.
	ClientCacheBytes int64
}

// The paper's Lustre 1.6.4.3 servers: the stripe unit, and the per-request
// costs and thread limit of kernel-level servers, which are leaner than a
// FUSE+userspace daemon.
const (
	// StripeSize is the striping unit across OSTs (Lustre's default).
	StripeSize int64 = 1 << 20
	// MDSOpCPU is the metadata server's cost per request; MDSThreads
	// bounds how many it serves at once.
	MDSOpCPU   sim.Duration = 25 * time.Microsecond
	MDSThreads              = 2
	// OSTOpCPU is an object server's cost per request.
	OSTOpCPU sim.Duration = 20 * time.Microsecond
)

// meta is the MDS-side record of one file.
type meta struct {
	ino   uint64
	size  int64
	atime sim.Time
	mtime sim.Time
	ctime sim.Time
	// holders are client IDs with cached pages under a read lock.
	holders map[int]*Client
}

// Cluster is a deployed Lustre file system.
type Cluster struct {
	env *sim.Env
	cfg Config

	mdsNode    *fabric.Node
	mdsThreads *sim.Resource
	osts       []*ost

	files   map[string]*meta
	dirs    map[string]map[string]struct{}
	nextIno uint64

	clients []*Client

	// Stats
	Revocations uint64
	MDSOps      uint64
}

type ost struct {
	node  *fabric.Node
	store *gluster.Posix
}

// New deploys a Lustre cluster on the given network. Node names are
// prefixed to stay unique across co-deployed systems.
func New(env *sim.Env, net *fabric.Network, prefix string, cfg Config) *Cluster {
	if cfg.OSTs <= 0 {
		panic("lustre: need at least one OST")
	}
	c := &Cluster{
		env:        env,
		cfg:        cfg,
		mdsNode:    net.NewNode(prefix+"-mds", 8),
		mdsThreads: sim.NewResource(env, MDSThreads),
		files:      make(map[string]*meta),
		dirs:       map[string]map[string]struct{}{"/": {}},
	}
	c.mdsNode.Handle("mds", c.handleMDS)
	c.mdsNode.Handle("mds-lock", c.handleLock)
	for i := 0; i < cfg.OSTs; i++ {
		node := net.NewNode(fmt.Sprintf("%s-ost%d", prefix, i), 8)
		dev := disk.NewHighPoint(env, max(1, disk.HighPointDisks/cfg.OSTs))
		store := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: cfg.OSTCacheBytes})
		o := &ost{node: node, store: store}
		node.Handle("ost", c.makeOSTHandler(o))
		c.osts = append(c.osts, o)
	}
	return c
}

// --- MDS protocol ---

type mdsReq struct {
	Op     string // create | open | stat | unlink | mkdir | readdir | setattr
	Path   string
	Client int
	Size   int64    // setattr
	Exact  bool     // setattr: set size exactly (truncate) vs extend-only
	Mtime  sim.Time // setattr
}

func (r *mdsReq) WireSize() int64 { return 48 + int64(len(r.Path)) }

type mdsResp struct {
	St    *gluster.Stat
	Names []string
	Code  string
}

func (r *mdsResp) WireSize() int64 {
	n := int64(16 + len(r.Code))
	if r.St != nil {
		n += r.St.WireSize()
	}
	for _, s := range r.Names {
		n += int64(len(s)) + 8
	}
	return n
}

func (c *Cluster) statOf(path string, m *meta) *gluster.Stat {
	return &gluster.Stat{
		Path: path, Ino: m.ino, Size: m.size,
		Atime: m.atime, Mtime: m.mtime, Ctime: m.ctime,
	}
}

func (c *Cluster) handleMDS(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
	r := req.(*mdsReq)
	c.MDSOps++
	c.mdsThreads.Acquire(p, 1)
	defer c.mdsThreads.Release(1)
	c.mdsNode.CPU.Use(p, MDSOpCPU)
	switch r.Op {
	case "create":
		if _, ok := c.files[r.Path]; ok {
			return &mdsResp{Code: "EEXIST"}
		}
		c.nextIno++
		now := c.env.Now()
		m := &meta{ino: c.nextIno, atime: now, mtime: now, ctime: now, holders: make(map[int]*Client)}
		c.files[r.Path] = m
		dir, name := splitPath(r.Path)
		c.ensureDir(dir)[name] = struct{}{}
		return &mdsResp{St: c.statOf(r.Path, m)}
	case "open", "stat":
		m, ok := c.files[r.Path]
		if !ok {
			return &mdsResp{Code: "ENOENT"}
		}
		return &mdsResp{St: c.statOf(r.Path, m)}
	case "setattr":
		m, ok := c.files[r.Path]
		if !ok {
			return &mdsResp{Code: "ENOENT"}
		}
		if r.Exact || r.Size > m.size {
			m.size = r.Size
		}
		m.mtime = r.Mtime
		return &mdsResp{St: c.statOf(r.Path, m)}
	case "unlink":
		m, ok := c.files[r.Path]
		if !ok {
			return &mdsResp{Code: "ENOENT"}
		}
		c.revokeLocked(p, r.Path, m, -1)
		delete(c.files, r.Path)
		dir, name := splitPath(r.Path)
		if d, ok := c.dirs[dir]; ok {
			delete(d, name)
		}
		return &mdsResp{}
	case "mkdir":
		c.ensureDir(r.Path)
		return &mdsResp{}
	case "readdir":
		d, ok := c.dirs[r.Path]
		if !ok {
			return &mdsResp{Code: "ENOENT"}
		}
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		sort.Strings(names)
		return &mdsResp{Names: names}
	default:
		panic("lustre: unknown mds op " + r.Op)
	}
}

// lockReq acquires a read lease; write intents revoke other holders.
type lockReq struct {
	Path   string
	Client int
	Write  bool
}

func (r *lockReq) WireSize() int64 { return 32 + int64(len(r.Path)) }

// handleLock serves lock acquisitions: a write intent revokes every other
// holder's cached pages before the writer proceeds.
func (c *Cluster) handleLock(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
	r := req.(*lockReq)
	c.mdsThreads.Acquire(p, 1)
	defer c.mdsThreads.Release(1)
	c.mdsNode.CPU.Use(p, MDSOpCPU)
	if m, ok := c.files[r.Path]; ok && r.Write {
		c.revokeLocked(p, r.Path, m, r.Client)
	}
	return &mdsResp{}
}

// revokeLocked drops every other client's cached pages for path. Each
// revocation is a callback RPC from the MDS to the holder, issued in
// sorted client order so identical runs revoke identically.
func (c *Cluster) revokeLocked(p *sim.Proc, path string, m *meta, exceptClient int) {
	ids := make([]int, 0, len(m.holders))
	for id := range m.holders {
		if id != exceptClient {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.Revocations++
		// Callback RPC to the client; the client drops its pages.
		_, _ = c.mdsNode.Call(p, m.holders[id].node, "lustre-client", &revokeMsg{Path: path})
		delete(m.holders, id)
	}
}

type revokeMsg struct{ Path string }

func (r *revokeMsg) WireSize() int64 { return 16 + int64(len(r.Path)) }

// --- OST protocol ---

type ostReq struct {
	Write bool
	Path  string
	Off   int64 // object-local offset
	Size  int64
	Data  blob.Blob
}

func (r *ostReq) WireSize() int64 { return 48 + int64(len(r.Path)) + r.Data.Len() }

type ostResp struct {
	Data blob.Blob
	Code string
}

func (r *ostResp) WireSize() int64 { return 16 + r.Data.Len() + int64(len(r.Code)) }

func (c *Cluster) makeOSTHandler(o *ost) fabric.Handler {
	return func(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
		r := req.(*ostReq)
		o.node.CPU.Use(p, OSTOpCPU)
		fd, err := o.store.Open(p, r.Path)
		if err != nil {
			if fd, err = o.store.Create(p, r.Path); err != nil {
				return &ostResp{Code: "EIO"}
			}
		}
		defer o.store.Close(p, fd)
		if r.Write {
			if _, err := o.store.Write(p, fd, r.Off, r.Data); err != nil {
				return &ostResp{Code: "EIO"}
			}
			return &ostResp{}
		}
		data, err := o.store.Read(p, fd, r.Off, r.Size)
		if err != nil {
			return &ostResp{Code: "EIO"}
		}
		return &ostResp{Data: data}
	}
}

func splitPath(path string) (dir, name string) {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	if i <= 0 {
		return "/", path[i+1:]
	}
	return path[:i], path[i+1:]
}

func (c *Cluster) ensureDir(path string) map[string]struct{} {
	if d, ok := c.dirs[path]; ok {
		return d
	}
	dir, name := splitPath(path)
	pd := c.ensureDir(dir)
	pd[name] = struct{}{}
	d := make(map[string]struct{})
	c.dirs[path] = d
	return d
}

// OSTs exposes the data servers' storage for experiment diagnostics.
func (c *Cluster) OSTs() []*gluster.Posix {
	out := make([]*gluster.Posix, len(c.osts))
	for i, o := range c.osts {
		out[i] = o.store
	}
	return out
}
