package gluster

import (
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// The glusterfsd daemon's processing costs, as a 2008-era glusterfsd
// (GlusterFS 1.3) on an 8-core node: a userspace daemon whose per-operation
// path — event loop, protocol decode, translator stack, VFS calls into the
// brick file system, and completion callbacks — costs far more than a
// kernel server would.
const (
	// ServerIOThreads bounds how many requests the daemon services
	// concurrently (the io-threads translator; requests beyond it queue).
	ServerIOThreads = 6
	// ServerOpCPU is the daemon + VFS processing cost per operation.
	ServerOpCPU sim.Duration = 160 * time.Microsecond
	// ServerPerByteCPUNanos is the copy cost (ns/byte) for data moved
	// through the daemon (FUSE-less on the server, but the brick still
	// copies between the network stack and the file system).
	ServerPerByteCPUNanos = 0.4
)

// Server is the protocol-server xlator: it exposes a child FS (typically
// SMCache wrapping Posix) as the "glusterfsd" fabric service.
type Server struct {
	node    *fabric.Node
	child   TaskFS
	threads *sim.Resource
	down    bool

	// ops is the free list of per-request frames; see serverOp.
	ops sim.Free[serverOp]

	// Ops counts completed requests by type for experiment reporting.
	Ops map[string]uint64
}

// NewServer attaches a GlusterFS daemon to node serving child. Requests are
// served on the fabric frame's own task.
func NewServer(node *fabric.Node, child TaskFS) *Server {
	s := &Server{
		node:    node,
		child:   child,
		threads: sim.NewResource(node.Network().Env(), ServerIOThreads),
		Ops:     make(map[string]uint64),
	}
	node.HandleT(ServiceName, s.handleT)
	return s
}

// Node returns the fabric node the daemon runs on.
func (s *Server) Node() *fabric.Node { return s.node }

// Fail takes the brick daemon down: every request is refused with
// ErrServerDown before reaching the translator stack, so neither the disk
// nor the cache bank sees it. Unlike an MCD crash nothing is lost — the
// brick's storage is intact when Recover brings the daemon back.
func (s *Server) Fail() { s.down = true }

// Recover restarts the brick daemon over its intact storage.
func (s *Server) Recover() { s.down = false }

// Down reports whether the daemon is failed.
func (s *Server) Down() bool { return s.down }

// serverOp is the daemon's pooled per-request frame. It carries the response
// message and the grant→charge→serve→respond chain as prebound method
// values, so the daemon's side of a request allocates nothing. The op
// returns to its server's pool when the fabric recycles the response: after
// the calling client's continuation has read it, or with the call's frame
// when a cut link kept it from being delivered.
type serverOp struct {
	s       *Server
	t       *sim.Task
	req     *request
	respond func(fabric.Msg)
	sp      *optrace.Span

	resp response

	fnGranted, fnCharged func()
	fn                   conts // the frame's own continuations; see conts.down
}

// release is the response's Recycle.
func (op *serverOp) release() {
	op.t, op.req, op.respond, op.sp = nil, nil, nil, nil
	op.resp = response{pooledMsg: op.resp.pooledMsg}
	op.s.ops.Push(op)
}

// handleT serves one RPC: take an io-thread, charge the daemon's CPU, run
// the operation on the child stack, respond.
func (s *Server) handleT(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*request)
	sp := optrace.StartSpan(t, optrace.LayerServer, r.verb.String())
	if s.down {
		// Refused at the listener: no io-thread is taken and no daemon
		// time is spent, like a connection reset from a dead glusterfsd.
		sp.SetAttr("down", "true")
		sp.End(t)
		respond(&response{verb: r.verb, code: errCode(ErrServerDown)})
		return
	}
	op := s.ops.Pop()
	if op == nil {
		op = &serverOp{s: s}
		op.resp.owner = op
		op.fnGranted, op.fnCharged = op.granted, op.charged
	}
	op.t, op.req, op.respond, op.sp = t, r, respond, sp
	op.resp.verb = r.verb
	s.threads.AcquireT(t, 1, op.fnGranted)
}

// granted runs once an io-thread is held: count the request, then charge the
// daemon's CPU — before serving (a write, on the bytes received), except
// that a read is charged after it is served, on the bytes it returns.
func (op *serverOp) granted() {
	s, r := op.s, op.req
	s.Ops[r.verb.String()]++
	if r.verb == verbRead {
		op.fn.down(op, s.child, op.t, r)
		return
	}
	op.charge(r.data.Len())
}

func (op *serverOp) charge(payload int64) {
	op.s.node.CPU.UseT(op.t, ServerOpCPU+sim.Duration(float64(payload)*ServerPerByteCPUNanos), op.fnCharged)
}

func (op *serverOp) charged() {
	if op.req.verb == verbRead {
		op.reply()
		return
	}
	op.fn.down(op, op.s.child, op.t, op.req)
}

// reply releases the io-thread before the span ends; the response leaves
// after both.
func (op *serverOp) reply() {
	op.s.threads.Release(1)
	op.sp.End(op.t)
	op.respond(&op.resp)
}

// The child's results (serverOp is a sink): each fills in the response, and
// all but a read's reply at once.

func (op *serverOp) gotData(data blob.Blob, err error) {
	op.resp.data, op.resp.code = data, errCode(err)
	op.charge(data.Len())
}

func (op *serverOp) gotFD(fd FD, err error) {
	op.resp.fd, op.resp.code = fd, errCode(err)
	op.reply()
}

func (op *serverOp) gotErr(err error) {
	op.resp.code = errCode(err)
	op.reply()
}

func (op *serverOp) gotN(n int64, err error) {
	op.resp.n, op.resp.code = n, errCode(err)
	op.reply()
}

func (op *serverOp) gotStat(st *Stat, err error) {
	if op.resp.code = errCode(err); err == nil {
		op.resp.st = *st
	}
	op.reply()
}

func (op *serverOp) gotNames(names []string, err error) {
	op.resp.names, op.resp.code = names, errCode(err)
	op.reply()
}
