// Package nfssim models a single-server NFS deployment over a choice of
// transports (NFS/RDMA, NFS/TCP on IPoIB, NFS/TCP on GigE), reproducing
// the paper's motivation experiment (Fig. 1): multi-client read bandwidth
// collapses once the working set exceeds the server's memory, because a
// single server's disks cannot match the network.
//
// The protocol is stateless (NFSv3-style): clients address files by path
// and offset. Clients implement gluster.FS so the common workload drivers
// run unchanged.
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
	node.Handle("nfsd", s.handle)
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

func (s *Server) handle(p *sim.Proc, from *fabric.Node, req fabric.Msg) fabric.Msg {
	r := req.(*nfsReq)
	s.threads.Acquire(p, 1)
	defer s.threads.Release(1)
	s.node.CPU.Use(p, OpCPU)
	switch r.Op {
	case "create":
		fd, err := s.store.Create(p, r.Path)
		if err != nil {
			return &nfsResp{Code: "EEXIST"}
		}
		_ = s.store.Close(p, fd)
		return &nfsResp{}
	case "read":
		fd, err := s.store.Open(p, r.Path)
		if err != nil {
			return &nfsResp{Code: "ENOENT"}
		}
		data, err := s.store.Read(p, fd, r.Off, r.Size)
		_ = s.store.Close(p, fd)
		if err != nil {
			return &nfsResp{Code: "EIO"}
		}
		return &nfsResp{Data: data}
	case "write":
		fd, err := s.store.Open(p, r.Path)
		if err != nil {
			return &nfsResp{Code: "ENOENT"}
		}
		_, err = s.store.Write(p, fd, r.Off, r.Data)
		_ = s.store.Close(p, fd)
		if err != nil {
			return &nfsResp{Code: "EIO"}
		}
		return &nfsResp{}
	case "stat":
		st, err := s.store.Stat(p, r.Path)
		if err != nil {
			return &nfsResp{Code: "ENOENT"}
		}
		return &nfsResp{St: st}
	case "unlink":
		if err := s.store.Unlink(p, r.Path); err != nil {
			return &nfsResp{Code: "ENOENT"}
		}
		return &nfsResp{}
	default:
		panic("nfssim: unknown op " + r.Op)
	}
}

// Client is an NFS client on one fabric node. It performs no client-side
// caching (the experiment isolates server behaviour).
type Client struct {
	node    *fabric.Node
	server  *fabric.Node
	fdPaths map[gluster.FD]string
	nextFD  gluster.FD

	// rpcs counts NFS RPCs issued, registered by Register.
	rpcs uint64
}

var _ gluster.FS = (*Client)(nil)

// NewClient returns an NFS client on node mounting the server.
func NewClient(node *fabric.Node, server *Server) *Client {
	return &Client{node: node, server: server.node, fdPaths: make(map[gluster.FD]string)}
}

func (c *Client) call(p *sim.Proc, req *nfsReq) *nfsResp {
	c.rpcs++
	resp, _ := c.node.Call(p, c.server, "nfsd", req)
	return resp.(*nfsResp)
}

// Register exposes the NFS client's RPC counter under prefix (e.g.
// "nfs-client0"): every operation is at least one server round trip —
// the single-server bottleneck the motivation experiment measures.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
}

// Create implements gluster.FS.
func (c *Client) Create(p *sim.Proc, path string) (gluster.FD, error) {
	r := c.call(p, &nfsReq{Op: "create", Path: path})
	if r.Code != "" {
		return 0, gluster.ErrExist
	}
	c.nextFD++
	c.fdPaths[c.nextFD] = path
	return c.nextFD, nil
}

// Open implements gluster.FS (a lookup RPC validates existence).
func (c *Client) Open(p *sim.Proc, path string) (gluster.FD, error) {
	r := c.call(p, &nfsReq{Op: "stat", Path: path})
	if r.Code != "" {
		return 0, gluster.ErrNotExist
	}
	c.nextFD++
	c.fdPaths[c.nextFD] = path
	return c.nextFD, nil
}

// Close implements gluster.FS.
func (c *Client) Close(p *sim.Proc, fd gluster.FD) error {
	if _, ok := c.fdPaths[fd]; !ok {
		return gluster.ErrBadFD
	}
	delete(c.fdPaths, fd)
	return nil
}

// Read implements gluster.FS.
func (c *Client) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	path, ok := c.fdPaths[fd]
	if !ok {
		return blob.Blob{}, gluster.ErrBadFD
	}
	if err := gluster.CheckRange(off, size); err != nil {
		return blob.Blob{}, err
	}
	r := c.call(p, &nfsReq{Op: "read", Path: path, Off: off, Size: size})
	if r.Code != "" {
		return blob.Blob{}, gluster.ErrNotExist
	}
	return r.Data, nil
}

// Write implements gluster.FS.
func (c *Client) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	path, ok := c.fdPaths[fd]
	if !ok {
		return 0, gluster.ErrBadFD
	}
	if err := gluster.CheckRange(off, data.Len()); err != nil {
		return 0, err
	}
	r := c.call(p, &nfsReq{Op: "write", Path: path, Off: off, Data: data})
	if r.Code != "" {
		return 0, gluster.ErrNotExist
	}
	return data.Len(), nil
}

// Stat implements gluster.FS.
func (c *Client) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	r := c.call(p, &nfsReq{Op: "stat", Path: path})
	if r.Code != "" {
		return nil, gluster.ErrNotExist
	}
	return r.St, nil
}

// Unlink implements gluster.FS.
func (c *Client) Unlink(p *sim.Proc, path string) error {
	r := c.call(p, &nfsReq{Op: "unlink", Path: path})
	if r.Code != "" {
		return gluster.ErrNotExist
	}
	return nil
}

// Mkdir implements gluster.FS (directories are implicit server-side).
func (c *Client) Mkdir(p *sim.Proc, path string) error { return nil }

// Readdir implements gluster.FS (not used by the Fig. 1 workload).
func (c *Client) Readdir(p *sim.Proc, path string) ([]string, error) {
	return nil, gluster.ErrNotExist
}

// Truncate implements gluster.FS (not used by the Fig. 1 workload).
func (c *Client) Truncate(p *sim.Proc, path string, size int64) error {
	return gluster.ErrNotExist
}
