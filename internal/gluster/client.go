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

	// statOps is the StatT frame free list; see clientStatOp.
	statOps []*clientStatOp

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

// ReadT implements TaskFS.
func (c *Client) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	c.callT(t, "read", &readReq{FD: fd, Off: off, Size: size}, func(m fabric.Msg, err error) {
		if err != nil {
			k(blob.Blob{}, err)
			return
		}
		r := m.(*readResp)
		k(r.Data, codeErr(r.Code))
	})
}

// WriteT implements TaskFS.
func (c *Client) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	c.callT(t, "write", &writeReq{FD: fd, Off: off, Data: data}, func(m fabric.Msg, err error) {
		if err != nil {
			k(0, err)
			return
		}
		r := m.(*writeResp)
		k(r.N, codeErr(r.Code))
	})
}

// StatT implements TaskFS.
func (c *Client) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := c.takeStatOp()
	op.t, op.k = t, k
	op.sp = optrace.StartSpan(t, optrace.LayerProtocol, "stat")
	op.req.Path = path
	c.rpcs++
	c.node.CallT(t, c.server, ServiceName, &op.req, op.fnDone)
}

// clientStatOp is Client.StatT's pooled per-operation frame: the request,
// the protocol span, and the completion continuation prebound as a method
// value, replacing the closures and request allocation of the generic callT
// path. The op returns to its client's pool when the fabric recycles the
// request — after both the continuation and the brick daemon are done with
// it, which is what makes reuse safe even for deadline-abandoned calls
// whose request is still being served.
type clientStatOp struct {
	c      *Client
	t      *sim.Task
	k      func(*Stat, error)
	sp     *optrace.Span
	req    statReq
	fnDone func(fabric.Msg, error)
}

func newClientStatOp(c *Client) *clientStatOp {
	op := &clientStatOp{c: c}
	op.req.op = op
	op.fnDone = op.done
	return op
}

func (c *Client) takeStatOp() *clientStatOp {
	if n := len(c.statOps); n > 0 {
		op := c.statOps[n-1]
		c.statOps[n-1] = nil
		c.statOps = c.statOps[:n-1]
		return op
	}
	return newClientStatOp(c)
}

func (op *clientStatOp) release() {
	op.t, op.k, op.sp = nil, nil, nil
	op.req.Path = ""
	op.c.statOps = append(op.c.statOps, op)
}

// done is callT's span handling plus the stat decode.
func (op *clientStatOp) done(m fabric.Msg, err error) {
	t, sp, k := op.t, op.sp, op.k
	if err != nil {
		op.c.rpcErrors++
		sp.SetAttr("deadline", "expired")
		sp.End(t)
		k(nil, err)
		return
	}
	sp.End(t)
	r := m.(*statResp)
	k(r.St, codeErr(r.Code))
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
