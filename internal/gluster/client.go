package gluster

import (
	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Client is the protocol-client xlator: the client half of the GlusterFS
// transport, forwarding every operation to one server over the fabric.
type Client struct {
	Blocking
	node   *fabric.Node
	server *fabric.Node

	// ops is the free list of stat/read/write frames; see clientOp.
	ops []*clientOp

	// RPC counters, registered by Register.
	rpcs      uint64
	rpcErrors uint64
}

var _ TaskFS = (*Client)(nil)

// NewClient returns a protocol client on node talking to the daemon on
// server.
func NewClient(node, server *fabric.Node) *Client {
	c := &Client{node: node, server: server}
	c.T = c
	return c
}

// TaskReady implements TaskFS: the protocol client's stack ends at the
// fabric, which serves any task.
func (c *Client) TaskReady() bool { return true }

// Register exposes the protocol client's RPC counters under prefix
// (e.g. "client0.protocol"): how many brick RPCs this mount issued and
// how many were abandoned at an operation deadline.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
	reg.Counter(prefix+".rpc_errors", func() uint64 { return c.rpcErrors })
}

// callT performs one protocol RPC under a protocol-layer span. The server
// path is authoritative, so callers above it clear any cache-budget
// deadline first; if one is still armed and expires, the error propagates
// up like any other FS error.
func (c *Client) callT(t *sim.Task, name string, req fabric.Msg, k func(fabric.Msg, error)) {
	sp := optrace.StartSpan(t, optrace.LayerProtocol, name)
	c.rpcs++
	c.node.CallT(t, c.server, ServiceName, req, func(m fabric.Msg, err error) {
		if err != nil {
			c.rpcErrors++
			sp.SetAttr("deadline", "expired")
		}
		sp.End(t)
		k(m, err)
	})
}

// openT issues a create or open and decodes the descriptor.
func (c *Client) openT(t *sim.Task, name string, req *openReq, k func(FD, error)) {
	c.callT(t, name, req, func(m fabric.Msg, err error) {
		if err != nil {
			k(0, err)
			return
		}
		r := m.(*openResp)
		k(r.FD, codeErr(r.Code))
	})
}

// CreateT implements TaskFS.
func (c *Client) CreateT(t *sim.Task, path string, k func(FD, error)) {
	c.openT(t, "create", &openReq{Path: path, Create: true}, k)
}

// OpenT implements TaskFS.
func (c *Client) OpenT(t *sim.Task, path string, k func(FD, error)) {
	c.openT(t, "open", &openReq{Path: path}, k)
}

// CloseT implements TaskFS.
func (c *Client) CloseT(t *sim.Task, fd FD, k func(error)) {
	c.simpleT(t, "close", &closeReq{FD: fd}, k)
}

// clientOp is the pooled per-operation frame of StatT, ReadT and WriteT: the
// request message, the protocol span, and the completion continuation
// prebound as a method value, replacing the closures and request allocation
// of the generic callT path. The op returns to its client's pool when the
// fabric recycles the request — after both the continuation and the brick
// daemon are done with it, which is what makes reuse safe even for
// deadline-abandoned calls whose request is still being served.
type clientOp struct {
	c    *Client
	verb verb
	t    *sim.Task
	sp   *optrace.Span

	kStat  func(*Stat, error)
	kRead  func(blob.Blob, error)
	kWrite func(int64, error)

	// The request of whichever operation the frame is serving.
	stat  statReq
	read  readReq
	write writeReq

	fnDone func(fabric.Msg, error)
}

func (c *Client) takeOp(t *sim.Task, v verb) *clientOp {
	var op *clientOp
	if n := len(c.ops); n > 0 {
		op = c.ops[n-1]
		c.ops[n-1] = nil
		c.ops = c.ops[:n-1]
	} else {
		op = &clientOp{c: c}
		op.stat.owner, op.read.owner, op.write.owner = op, op, op
		op.fnDone = op.done
	}
	op.verb, op.t = v, t
	return op
}

// call issues the frame's request under a protocol-layer span, like callT.
func (op *clientOp) call(req fabric.Msg) {
	c := op.c
	op.sp = optrace.StartSpan(op.t, optrace.LayerProtocol, op.verb.String())
	c.rpcs++
	c.node.CallT(op.t, c.server, ServiceName, req, op.fnDone)
}

// release is the requests' Recycle: the call's frame retired, so nothing
// reads the request now.
func (op *clientOp) release() {
	op.t, op.sp, op.kStat, op.kRead, op.kWrite = nil, nil, nil, nil, nil
	op.stat.Path, op.write.Data = "", blob.Blob{}
	op.c.ops = append(op.c.ops, op)
}

// done is callT's span handling plus the response decode. A readResp's Data
// reaches k as a value: the response is recycled when this returns, and k
// keeps what it copies.
func (op *clientOp) done(m fabric.Msg, err error) {
	if err != nil {
		op.c.rpcErrors++
		op.sp.SetAttr("deadline", "expired")
	}
	op.sp.End(op.t)
	switch op.verb {
	case verbStat:
		if err != nil {
			op.kStat(nil, err)
		} else {
			r := m.(*statResp)
			op.kStat(r.St, codeErr(r.Code))
		}
	case verbRead:
		if err != nil {
			op.kRead(blob.Blob{}, err)
		} else {
			r := m.(*readResp)
			op.kRead(r.Data, codeErr(r.Code))
		}
	default:
		if err != nil {
			op.kWrite(0, err)
		} else {
			r := m.(*writeResp)
			op.kWrite(r.N, codeErr(r.Code))
		}
	}
}

// ReadT implements TaskFS.
func (c *Client) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	op := c.takeOp(t, verbRead)
	op.kRead = k
	op.read.FD, op.read.Off, op.read.Size = fd, off, size
	op.call(&op.read)
}

// WriteT implements TaskFS.
func (c *Client) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	op := c.takeOp(t, verbWrite)
	op.kWrite = k
	op.write.FD, op.write.Off, op.write.Data = fd, off, data
	op.call(&op.write)
}

// StatT implements TaskFS.
func (c *Client) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := c.takeOp(t, verbStat)
	op.kStat = k
	op.stat.Path = path
	op.call(&op.stat)
}

// UnlinkT implements TaskFS.
func (c *Client) UnlinkT(t *sim.Task, path string, k func(error)) {
	c.simpleT(t, "unlink", &pathReq{Op: "unlink", Path: path}, k)
}

// simpleT issues a request whose response carries only an error code.
func (c *Client) simpleT(t *sim.Task, name string, req fabric.Msg, k func(error)) {
	c.callT(t, name, req, func(m fabric.Msg, err error) {
		if err != nil {
			k(err)
			return
		}
		k(codeErr(m.(*simpleResp).Code))
	})
}

// MkdirT implements TaskFS.
func (c *Client) MkdirT(t *sim.Task, path string, k func(error)) {
	c.simpleT(t, "mkdir", &pathReq{Op: "mkdir", Path: path}, k)
}

// ReaddirT implements TaskFS.
func (c *Client) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	c.callT(t, "readdir", &readdirReq{Path: path}, func(m fabric.Msg, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		r := m.(*readdirResp)
		k(r.Names, codeErr(r.Code))
	})
}

// TruncateT implements TaskFS.
func (c *Client) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	c.simpleT(t, "truncate", &pathReq{Op: "truncate", Path: path, Size: size}, k)
}
