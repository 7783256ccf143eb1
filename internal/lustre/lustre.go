// Package lustre implements a Lustre-like parallel file system baseline:
// one metadata server (MDS), data striped across object storage targets
// (OSTs), and a coherent client-side page cache kept consistent by
// MDS-granted locks that are revoked when another client writes, truncates
// or unlinks the file.
//
// It is the comparison system of the reproduced paper (Lustre 1.6 with 1 or
// 4 data servers, warm or cold client cache). Like every layer of the
// GlusterFS and IMCa stacks it is written in continuation style: clients
// implement gluster.TaskFS and the MDS, OSTs and clients' revocation
// callbacks serve as fabric.HandlerT, so every workload driver — and a
// CMCache stacked on a client — runs unchanged against GlusterFS, IMCa,
// and Lustre.
//
// The testbed's service costs, thread counts, stripe and client page size
// are package constants (MODEL.md lists them); a deployment's Config sets
// only what an experiment varies: the OST count and the cache sizes.
package lustre

import (
	"fmt"
	"sort"
	"strconv"
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
	c.mdsNode.HandleT("mds", c.handleMDS)
	c.mdsNode.HandleT("mds-lock", c.handleLock)
	for i := 0; i < cfg.OSTs; i++ {
		node := net.NewNode(fmt.Sprintf("%s-ost%d", prefix, i), 8)
		dev := disk.NewHighPoint(env, max(1, disk.HighPointDisks/cfg.OSTs))
		store := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: cfg.OSTCacheBytes})
		o := &ost{node: node, store: store}
		node.HandleT("ost", c.makeOSTHandler(o))
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

// handleMDS serves one metadata request on an MDS thread. The thread is
// released before the reply is sent.
func (c *Cluster) handleMDS(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*mdsReq)
	c.MDSOps++
	c.onThread(t, func(done func(fabric.Msg)) { c.mdsOp(t, r, done) }, respond)
}

// onThread runs op on an MDS thread after the per-request CPU charge, then
// releases the thread and responds with what op produced.
func (c *Cluster) onThread(t *sim.Task, op func(done func(fabric.Msg)), respond func(fabric.Msg)) {
	c.mdsThreads.AcquireT(t, 1, func() {
		c.mdsNode.CPU.UseT(t, MDSOpCPU, func() {
			op(func(resp fabric.Msg) {
				c.mdsThreads.Release(1)
				respond(resp)
			})
		})
	})
}

// mdsOp performs one metadata operation and hands its reply to done.
func (c *Cluster) mdsOp(t *sim.Task, r *mdsReq, done func(fabric.Msg)) {
	switch r.Op {
	case "create":
		if _, ok := c.files[r.Path]; ok {
			done(&mdsResp{Code: "EEXIST"})
			return
		}
		c.nextIno++
		now := c.env.Now()
		m := &meta{ino: c.nextIno, atime: now, mtime: now, ctime: now, holders: make(map[int]*Client)}
		c.files[r.Path] = m
		dir, name := splitPath(r.Path)
		c.ensureDir(dir)[name] = struct{}{}
		done(&mdsResp{St: c.statOf(r.Path, m)})
	case "open", "stat":
		m, ok := c.files[r.Path]
		if !ok {
			done(&mdsResp{Code: "ENOENT"})
			return
		}
		done(&mdsResp{St: c.statOf(r.Path, m)})
	case "setattr":
		m, ok := c.files[r.Path]
		if !ok {
			done(&mdsResp{Code: "ENOENT"})
			return
		}
		set := func() {
			if r.Exact || r.Size > m.size {
				m.size = r.Size
			}
			m.mtime = r.Mtime
			done(&mdsResp{St: c.statOf(r.Path, m)})
		}
		if !r.Exact {
			set()
			return
		}
		// A truncate, like a write intent, revokes the other holders.
		c.revoke(t, r.Path, m, r.Client, set)
	case "unlink":
		m, ok := c.files[r.Path]
		if !ok {
			done(&mdsResp{Code: "ENOENT"})
			return
		}
		c.revoke(t, r.Path, m, -1, func() {
			delete(c.files, r.Path)
			dir, name := splitPath(r.Path)
			if d, ok := c.dirs[dir]; ok {
				delete(d, name)
			}
			done(&mdsResp{})
		})
	case "mkdir":
		c.ensureDir(r.Path)
		done(&mdsResp{})
	case "readdir":
		d, ok := c.dirs[r.Path]
		if !ok {
			done(&mdsResp{Code: "ENOENT"})
			return
		}
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		sort.Strings(names)
		done(&mdsResp{Names: names})
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
func (c *Cluster) handleLock(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*lockReq)
	c.onThread(t, func(done func(fabric.Msg)) {
		granted := func() { done(&mdsResp{}) }
		if m, ok := c.files[r.Path]; ok && r.Write {
			c.revoke(t, r.Path, m, r.Client, granted)
			return
		}
		granted()
	}, respond)
}

// revoke drops every other client's cached pages for path, then runs k.
// Each revocation is a callback RPC from the MDS to the holder, issued one
// at a time in sorted client order so identical runs revoke identically.
func (c *Cluster) revoke(t *sim.Task, path string, m *meta, exceptClient int, k func()) {
	ids := make([]int, 0, len(m.holders))
	for id := range m.holders {
		if id != exceptClient {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var next func()
	next = func() {
		if len(ids) == 0 {
			k()
			return
		}
		id := ids[0]
		ids = ids[1:]
		c.Revocations++
		// Callback RPC to the client; the client drops its pages.
		c.mdsNode.CallT(t, m.holders[id].node, "lustre-client", &revokeMsg{Path: path, Ino: m.ino}, func(fabric.Msg, error) {
			delete(m.holders, id)
			next()
		})
	}
	next()
}

// revokeMsg names the file whose pages the holder drops by its inode; the
// path rides along and sizes the callback.
type revokeMsg struct {
	Path string
	Ino  uint64
}

func (r *revokeMsg) WireSize() int64 { return 16 + int64(len(r.Path)) }

// --- OST protocol ---

// ostReq reads, writes or punches (truncates) the object of file Ino on
// one OST: a file recreated at a path gets a fresh inode and so a fresh,
// empty object. Path rides along and sizes the request.
type ostReq struct {
	Write bool
	Punch bool
	Path  string
	Ino   uint64
	Off   int64 // object-local offset
	Size  int64 // a punch's new object size
	Data  blob.Blob
}

func (r *ostReq) WireSize() int64 { return 48 + int64(len(r.Path)) + r.Data.Len() }

type ostResp struct {
	Data blob.Blob
	Code string
}

func (r *ostResp) WireSize() int64 { return 16 + r.Data.Len() + int64(len(r.Code)) }

// makeOSTHandler serves o's object reads, writes and punches. An object
// opened for a read or write is closed before the reply is sent.
func (c *Cluster) makeOSTHandler(o *ost) fabric.HandlerT {
	return func(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
		r := req.(*ostReq)
		o.node.CPU.UseT(t, OSTOpCPU, func() {
			obj := "/" + strconv.FormatUint(r.Ino, 10)
			if r.Punch {
				o.store.TruncateT(t, obj, r.Size, func(err error) {
					// An object never written is a hole already.
					if err != nil && err != gluster.ErrNotExist {
						respond(&ostResp{Code: "EIO"})
						return
					}
					respond(&ostResp{})
				})
				return
			}
			serve := func(fd gluster.FD) {
				reply := func(data blob.Blob, err error) {
					resp := &ostResp{Data: data}
					if err != nil {
						resp = &ostResp{Code: "EIO"}
					}
					o.store.CloseT(t, fd, func(error) { respond(resp) })
				}
				if r.Write {
					o.store.WriteT(t, fd, r.Off, r.Data, func(_ int64, err error) { reply(blob.Blob{}, err) })
					return
				}
				o.store.ReadT(t, fd, r.Off, r.Size, reply)
			}
			o.store.OpenT(t, obj, func(fd gluster.FD, err error) {
				if err == nil {
					serve(fd)
					return
				}
				o.store.CreateT(t, obj, func(fd gluster.FD, err error) {
					if err != nil {
						respond(&ostResp{Code: "EIO"})
						return
					}
					serve(fd)
				})
			})
		})
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
