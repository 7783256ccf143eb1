// Package nfssim models a single-server NFS deployment over a choice of
// transports (NFS/RDMA, NFS/TCP on IPoIB, NFS/TCP on GigE), reproducing
// the paper's motivation experiment (Fig. 1): multi-client read bandwidth
// collapses once the working set exceeds the server's memory, because a
// single server's disks cannot match the network.
//
// The protocol is stateless (NFSv3-style): clients address files by path
// and offset. Clients implement gluster.TaskFS and the server serves as a
// fabric.HandlerT, in continuation style like every other layer, so the
// common workload drivers run unchanged.
//
// The server is calibrated by two constants, OpCPU and Threads, over the
// paper's 8-disk HighPoint array (disk.NewHighPoint); a deployment sets only
// its page cache, the 4 GB / 8 GB knob of Fig. 1.
package nfssim

import (
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// The paper's NFS server: a kernel nfsd.
const (
	// OpCPU is the per-request server cost (kernel nfsd is lean).
	OpCPU sim.Duration = 10 * time.Microsecond
	// Threads bounds nfsd concurrency.
	Threads = 8
)

// Server is an NFS server attached to a fabric node.
type Server struct {
	node    *fabric.Node
	store   *gluster.Posix
	threads *sim.Resource
}

// NewServer deploys an NFS server on node with memBytes of page cache.
func NewServer(env *sim.Env, node *fabric.Node, memBytes int64) *Server {
	arr := disk.NewHighPoint(env, disk.HighPointDisks)
	s := &Server{
		node:    node,
		store:   gluster.NewPosix(env, gluster.PosixConfig{Dev: arr, CacheBytes: memBytes}),
		threads: sim.NewResource(env, Threads),
	}
	node.HandleT("nfsd", s.handle)
	return s
}

// Store exposes the underlying storage (for cache inspection in tests).
func (s *Server) Store() *gluster.Posix { return s.store }

type nfsReq struct {
	Op   string // create | read | write | stat | unlink
	Path string
	Off  int64
	Size int64
	Data blob.Blob
}

func (r *nfsReq) WireSize() int64 { return 48 + int64(len(r.Path)) + r.Data.Len() }

type nfsResp struct {
	Data blob.Blob
	St   *gluster.Stat
	Code string
}

func (r *nfsResp) WireSize() int64 {
	n := int64(16+len(r.Code)) + r.Data.Len()
	if r.St != nil {
		n += r.St.WireSize()
	}
	return n
}

// handle serves one request on an nfsd thread. The thread is released
// before the reply is sent.
func (s *Server) handle(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*nfsReq)
	s.threads.AcquireT(t, 1, func() {
		s.node.CPU.UseT(t, OpCPU, func() {
			s.serve(t, r, func(resp *nfsResp) {
				s.threads.Release(1)
				respond(resp)
			})
		})
	})
}

// serve performs one request against the store and hands its reply to
// done.
func (s *Server) serve(t *sim.Task, r *nfsReq, done func(*nfsResp)) {
	switch r.Op {
	case "create":
		s.store.CreateT(t, r.Path, func(fd gluster.FD, err error) {
			if err != nil {
				done(&nfsResp{Code: "EEXIST"})
				return
			}
			s.store.CloseT(t, fd, func(error) { done(&nfsResp{}) })
		})
	case "read", "write":
		s.store.OpenT(t, r.Path, func(fd gluster.FD, err error) {
			if err != nil {
				done(&nfsResp{Code: "ENOENT"})
				return
			}
			// reply closes fd, then replies with the operation's outcome.
			reply := func(data blob.Blob, err error) {
				resp := &nfsResp{Data: data}
				if err != nil {
					resp = &nfsResp{Code: "EIO"}
				}
				s.store.CloseT(t, fd, func(error) { done(resp) })
			}
			if r.Op == "write" {
				s.store.WriteT(t, fd, r.Off, r.Data, func(_ int64, err error) { reply(blob.Blob{}, err) })
				return
			}
			s.store.ReadT(t, fd, r.Off, r.Size, reply)
		})
	case "stat":
		s.store.StatT(t, r.Path, func(st *gluster.Stat, err error) {
			if err != nil {
				done(&nfsResp{Code: "ENOENT"})
				return
			}
			own := *st // the store lends st; the reply keeps a copy
			done(&nfsResp{St: &own})
		})
	case "unlink":
		s.store.UnlinkT(t, r.Path, func(err error) {
			if err != nil {
				done(&nfsResp{Code: "ENOENT"})
				return
			}
			done(&nfsResp{})
		})
	default:
		panic("nfssim: unknown op " + r.Op)
	}
}

// Client is an NFS client on one fabric node. It performs no client-side
// caching (the experiment isolates server behaviour). Every operation is
// written once, in continuation style; the embedded Blocking derives the
// blocking FS methods from those.
type Client struct {
	gluster.Blocking
	node    *fabric.Node
	server  *fabric.Node
	fdPaths map[gluster.FD]string
	nextFD  gluster.FD

	// rpcs counts NFS RPCs issued, registered by Register.
	rpcs uint64
}

var _ gluster.TaskFS = (*Client)(nil)

// NewClient returns an NFS client on node mounting the server.
func NewClient(node *fabric.Node, server *Server) *Client {
	c := &Client{node: node, server: server.node, fdPaths: make(map[gluster.FD]string)}
	c.Blocking = gluster.NewBlocking(c)
	return c
}

// call sends req to the server and hands k the reply.
func (c *Client) call(t *sim.Task, req *nfsReq, k func(*nfsResp)) {
	c.rpcs++
	c.node.CallT(t, c.server, "nfsd", req, func(m fabric.Msg, _ error) { k(m.(*nfsResp)) })
}

// Register exposes the NFS client's RPC counter under prefix (e.g.
// "nfs-client0"): every operation is at least one server round trip —
// the single-server bottleneck the motivation experiment measures.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
}

// CreateT implements gluster.TaskFS.
func (c *Client) CreateT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.call(t, &nfsReq{Op: "create", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrExist)
			return
		}
		k(c.newFD(path), nil)
	})
}

// OpenT implements gluster.TaskFS (a lookup RPC validates existence).
func (c *Client) OpenT(t *sim.Task, path string, k func(gluster.FD, error)) {
	c.call(t, &nfsReq{Op: "stat", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrNotExist)
			return
		}
		k(c.newFD(path), nil)
	})
}

// newFD hands out a descriptor for path.
func (c *Client) newFD(path string) gluster.FD {
	c.nextFD++
	c.fdPaths[c.nextFD] = path
	return c.nextFD
}

// CloseT implements gluster.TaskFS.
func (c *Client) CloseT(t *sim.Task, fd gluster.FD, k func(error)) {
	if _, ok := c.fdPaths[fd]; !ok {
		k(gluster.ErrBadFD)
		return
	}
	delete(c.fdPaths, fd)
	k(nil)
}

// ReadT implements gluster.TaskFS.
func (c *Client) ReadT(t *sim.Task, fd gluster.FD, off, size int64, k func(blob.Blob, error)) {
	path, ok := c.fdPaths[fd]
	if !ok {
		k(blob.Blob{}, gluster.ErrBadFD)
		return
	}
	if err := gluster.CheckRange(off, size); err != nil {
		k(blob.Blob{}, err)
		return
	}
	c.call(t, &nfsReq{Op: "read", Path: path, Off: off, Size: size}, func(r *nfsResp) {
		if r.Code != "" {
			k(blob.Blob{}, gluster.ErrNotExist)
			return
		}
		k(r.Data, nil)
	})
}

// WriteT implements gluster.TaskFS.
func (c *Client) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	path, ok := c.fdPaths[fd]
	if !ok {
		k(0, gluster.ErrBadFD)
		return
	}
	if err := gluster.CheckRange(off, data.Len()); err != nil {
		k(0, err)
		return
	}
	c.call(t, &nfsReq{Op: "write", Path: path, Off: off, Data: data}, func(r *nfsResp) {
		if r.Code != "" {
			k(0, gluster.ErrNotExist)
			return
		}
		k(data.Len(), nil)
	})
}

// StatT implements gluster.TaskFS.
func (c *Client) StatT(t *sim.Task, path string, k func(*gluster.Stat, error)) {
	c.call(t, &nfsReq{Op: "stat", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(nil, gluster.ErrNotExist)
			return
		}
		k(r.St, nil)
	})
}

// UnlinkT implements gluster.TaskFS.
func (c *Client) UnlinkT(t *sim.Task, path string, k func(error)) {
	c.call(t, &nfsReq{Op: "unlink", Path: path}, func(r *nfsResp) {
		if r.Code != "" {
			k(gluster.ErrNotExist)
			return
		}
		k(nil)
	})
}

// MkdirT implements gluster.TaskFS (directories are implicit server-side).
func (c *Client) MkdirT(t *sim.Task, path string, k func(error)) { k(nil) }

// ReaddirT implements gluster.TaskFS (not used by the Fig. 1 workload).
func (c *Client) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	k(nil, gluster.ErrNotExist)
}

// TruncateT implements gluster.TaskFS (not used by the Fig. 1 workload).
func (c *Client) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	k(gluster.ErrNotExist)
}
