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

	// ops is the free list of per-operation frames; see clientOp.
	ops sim.Free[clientOp]

	// RPC counters, registered by Register.
	rpcs      uint64
	rpcErrors uint64
}

var _ TaskFS = (*Client)(nil)

// NewClient returns a protocol client on node talking to the daemon on
// server.
func NewClient(node, server *fabric.Node) *Client {
	c := &Client{node: node, server: server}
	c.Blocking = NewBlocking(c)
	return c
}

// Register exposes the protocol client's RPC counters under prefix
// (e.g. "client0.protocol"): how many brick RPCs this mount issued and
// how many a cut link failed.
func (c *Client) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".rpcs", func() uint64 { return c.rpcs })
	reg.Counter(prefix+".rpc_errors", func() uint64 { return c.rpcErrors })
}

// clientOp is the protocol client's pooled per-operation frame: the request
// message, the protocol span, and the completion continuation prebound as a
// method value. The op returns to its client's pool when the fabric
// recycles the request — after both the continuation and the brick daemon
// are done with it, which is what makes reuse safe even for a call a cut
// link abandoned while its request was still being served.
type clientOp struct {
	c  *Client
	t  *sim.Task
	sp *optrace.Span

	k   conts // the caller's continuation, by result shape
	req request

	fnDone func(fabric.Msg, error)
}

// start draws a frame for one v request; the caller fills in the operands
// and its continuation, then calls.
func (c *Client) start(t *sim.Task, v verb) *clientOp {
	op := c.ops.Pop()
	if op == nil {
		op = &clientOp{c: c}
		op.req.owner = op
		op.fnDone = op.done
	}
	op.req.verb, op.t = v, t
	return op
}

// call issues the frame's request under a protocol-layer span.
func (op *clientOp) call() {
	c := op.c
	op.sp = optrace.StartSpan(op.t, optrace.LayerProtocol, op.req.verb.String())
	c.rpcs++
	c.node.CallT(op.t, c.server, ServiceName, &op.req, op.fnDone)
}

// release is the request's Recycle: the call's frame retired, so nothing
// reads the request now.
func (op *clientOp) release() {
	op.t, op.sp, op.k = nil, nil, conts{}
	// The operands that pin memory, and that every verb's WireSize counts.
	op.req.path, op.req.data = "", blob.Blob{}
	op.c.ops.Push(op)
}

// done closes the span and decodes the response for the caller. The server
// path is authoritative, so a failed RPC — the brick unreachable — is the
// operation's error, like any other FS error. What a response lends (a
// read's data, a stat, names) reaches k as a value: the response is
// recycled when this returns, and k keeps what it copies.
func (op *clientOp) done(m fabric.Msg, err error) {
	r, _ := m.(*response)
	if err != nil {
		op.c.rpcErrors++
		op.sp.SetAttr("result", "unreachable")
		r = &response{}
	} else {
		err = codeErr(r.code)
	}
	op.sp.End(op.t)
	switch op.req.verb {
	case verbCreate, verbOpen:
		op.k.fd(r.fd, err)
	case verbRead:
		op.k.data(r.data, err)
	case verbWrite:
		op.k.n(r.n, err)
	case verbStat:
		if err != nil {
			op.k.stat(nil, err)
		} else {
			op.k.stat(&r.st, nil)
		}
	case verbReaddir:
		op.k.names(r.names, err)
	default:
		op.k.err(err)
	}
}

// CreateT implements TaskFS.
func (c *Client) CreateT(t *sim.Task, path string, k func(FD, error)) {
	op := c.start(t, verbCreate)
	op.req.path, op.k.fd = path, k
	op.call()
}

// OpenT implements TaskFS.
func (c *Client) OpenT(t *sim.Task, path string, k func(FD, error)) {
	op := c.start(t, verbOpen)
	op.req.path, op.k.fd = path, k
	op.call()
}

// CloseT implements TaskFS.
func (c *Client) CloseT(t *sim.Task, fd FD, k func(error)) {
	op := c.start(t, verbClose)
	op.req.fd, op.k.err = fd, k
	op.call()
}

// ReadT implements TaskFS.
func (c *Client) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	op := c.start(t, verbRead)
	op.req.fd, op.req.off, op.req.size, op.k.data = fd, off, size, k
	op.call()
}

// WriteT implements TaskFS.
func (c *Client) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	op := c.start(t, verbWrite)
	op.req.fd, op.req.off, op.req.data, op.k.n = fd, off, data, k
	op.call()
}

// StatT implements TaskFS.
func (c *Client) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := c.start(t, verbStat)
	op.req.path, op.k.stat = path, k
	op.call()
}

// UnlinkT implements TaskFS.
func (c *Client) UnlinkT(t *sim.Task, path string, k func(error)) {
	op := c.start(t, verbUnlink)
	op.req.path, op.k.err = path, k
	op.call()
}

// MkdirT implements TaskFS.
func (c *Client) MkdirT(t *sim.Task, path string, k func(error)) {
	op := c.start(t, verbMkdir)
	op.req.path, op.k.err = path, k
	op.call()
}

// ReaddirT implements TaskFS.
func (c *Client) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	op := c.start(t, verbReaddir)
	op.req.path, op.k.names = path, k
	op.call()
}

// TruncateT implements TaskFS.
func (c *Client) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	op := c.start(t, verbTruncate)
	op.req.path, op.req.size, op.k.err = path, size, k
	op.call()
}
