package gluster

import (
	"fmt"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// ServerConfig models the glusterfsd daemon's processing costs.
type ServerConfig struct {
	// IOThreads bounds how many requests the daemon services
	// concurrently (the io-threads translator; requests beyond it queue).
	IOThreads int
	// OpCPU is the daemon + VFS processing cost per operation.
	OpCPU sim.Duration
	// PerByteCPUNanos is the copy cost (ns/byte) for data moved through
	// the daemon (FUSE-less on the server, but the brick still copies
	// between the network stack and the file system).
	PerByteCPUNanos float64
}

// DefaultServerConfig matches a 2008-era glusterfsd (GlusterFS 1.3) on an
// 8-core node: a userspace daemon whose per-operation path — event loop,
// protocol decode, translator stack, VFS calls into the brick file system,
// and completion callbacks — costs far more than a kernel server would.
var DefaultServerConfig = ServerConfig{
	IOThreads:       6,
	OpCPU:           160 * time.Microsecond,
	PerByteCPUNanos: 0.4,
}

// Server is the protocol-server xlator: it exposes a child FS (typically
// SMCache wrapping Posix) as the "glusterfsd" fabric service.
type Server struct {
	node    *fabric.Node
	child   TaskFS
	cfg     ServerConfig
	threads *sim.Resource
	down    bool

	// ops is the free list of stat/read/write frames; see serverOp.
	ops []*serverOp

	// Ops counts completed requests by type for experiment reporting.
	Ops map[string]uint64
}

// NewServer attaches a GlusterFS daemon to node serving child.
func NewServer(node *fabric.Node, child FS, cfg ServerConfig) *Server {
	if cfg.IOThreads <= 0 {
		cfg.IOThreads = DefaultServerConfig.IOThreads
	}
	if cfg.OpCPU == 0 {
		cfg.OpCPU = DefaultServerConfig.OpCPU
	}
	if cfg.PerByteCPUNanos == 0 {
		cfg.PerByteCPUNanos = DefaultServerConfig.PerByteCPUNanos
	}
	// Requests are served on the fabric frame's own task, so the whole
	// brick stack must be continuation-style.
	tfs := AsTaskFS(child)
	if tfs == nil {
		panic(fmt.Sprintf("gluster: NewServer: child %T is not task-ready", child))
	}
	s := &Server{
		node:    node,
		child:   tfs,
		cfg:     cfg,
		threads: sim.NewResource(node.Network().Env(), cfg.IOThreads),
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

// downResp builds the refused-request response for req's type.
func downResp(req fabric.Msg) fabric.Msg {
	code := errCode(ErrServerDown)
	switch req.(type) {
	case *openReq:
		return &openResp{Code: code}
	case *closeReq, *pathReq:
		return &simpleResp{Code: code}
	case *readReq:
		return &readResp{Code: code}
	case *writeReq:
		return &writeResp{Code: code}
	case *statReq:
		return &statResp{Code: code}
	case *readdirReq:
		return &readdirResp{Code: code}
	default:
		panic("gluster: unknown request type")
	}
}

// reqName names a protocol request for stats and spans.
func reqName(req fabric.Msg) string {
	switch r := req.(type) {
	case *openReq:
		if r.Create {
			return "create"
		}
		return "open"
	case *closeReq:
		return "close"
	case *readReq:
		return "read"
	case *writeReq:
		return "write"
	case *statReq:
		return "stat"
	case *pathReq:
		return r.Op
	case *readdirReq:
		return "readdir"
	}
	return "?"
}

func (s *Server) chargeT(t *sim.Task, payload int64, k func()) {
	cpu := s.cfg.OpCPU + sim.Duration(float64(payload)*s.cfg.PerByteCPUNanos)
	s.node.CPU.UseT(t, cpu, k)
}

// serverOp is the daemon's pooled frame for a stat, read or write — the
// requests workloads issue by the hundred thousand. It carries the response
// message and the grant→charge→serve→respond chain as prebound method values,
// so the daemon's side of those requests allocates nothing. The op returns to
// its server's pool when the fabric recycles the response: after the calling
// client's continuation has read it, or with the call's frame when it was
// never delivered (a deadline, a cut link).
type serverOp struct {
	s       *Server
	t       *sim.Task
	req     fabric.Msg // *statReq, *readReq or *writeReq
	respond func(fabric.Msg)
	sp      *optrace.Span

	// The response of whichever request the frame is serving.
	stat  statResp
	read  readResp
	write writeResp

	// Each verb's child continuation is bound when the frame first serves
	// that verb, so a brick that only stats binds only fnStat.
	fnGranted, fnCharged func()
	fnStat               func(*Stat, error)
	fnRead               func(blob.Blob, error)
	fnWrite              func(int64, error)
}

func (s *Server) takeOp() *serverOp {
	if n := len(s.ops); n > 0 {
		op := s.ops[n-1]
		s.ops[n-1] = nil
		s.ops = s.ops[:n-1]
		return op
	}
	op := &serverOp{s: s}
	op.stat.owner, op.read.owner, op.write.owner = op, op, op
	op.fnGranted, op.fnCharged = op.granted, op.charged
	return op
}

// release is the responses' Recycle.
func (op *serverOp) release() {
	op.t, op.req, op.respond, op.sp = nil, nil, nil, nil
	op.stat.St, op.stat.Code = nil, ""
	op.read.Data, op.read.Code = blob.Blob{}, ""
	op.write.Code = ""
	op.s.ops = append(op.s.ops, op)
}

// granted runs once an io-thread is held: count the request, then charge the
// daemon's CPU — before serving a stat or a write (on the bytes received),
// after serving a read (on the bytes it returns).
func (op *serverOp) granted() {
	s := op.s
	switch r := op.req.(type) {
	case *statReq:
		s.Ops["stat"]++
		s.chargeT(op.t, 0, op.fnCharged)
	case *writeReq:
		s.Ops["write"]++
		s.chargeT(op.t, r.Data.Len(), op.fnCharged)
	case *readReq:
		s.Ops["read"]++
		if op.fnRead == nil {
			op.fnRead = op.readDone
		}
		s.child.ReadT(op.t, r.FD, r.Off, r.Size, op.fnRead)
	}
}

func (op *serverOp) charged() {
	switch r := op.req.(type) {
	case *statReq:
		if op.fnStat == nil {
			op.fnStat = op.statDone
		}
		op.s.child.StatT(op.t, r.Path, op.fnStat)
	case *writeReq:
		if op.fnWrite == nil {
			op.fnWrite = op.writeDone
		}
		op.s.child.WriteT(op.t, r.FD, r.Off, r.Data, op.fnWrite)
	case *readReq:
		op.reply(&op.read)
	}
}

func (op *serverOp) statDone(st *Stat, err error) {
	op.stat.St, op.stat.Code = st, errCode(err)
	op.reply(&op.stat)
}

func (op *serverOp) readDone(data blob.Blob, err error) {
	op.read.Data, op.read.Code = data, errCode(err)
	op.s.chargeT(op.t, data.Len(), op.fnCharged)
}

func (op *serverOp) writeDone(n int64, err error) {
	op.write.N, op.write.Code = n, errCode(err)
	op.reply(&op.write)
}

// reply releases the io-thread before the span ends; the response leaves
// after both — the order of every request type.
func (op *serverOp) reply(m fabric.Msg) {
	op.s.threads.Release(1)
	op.sp.End(op.t)
	op.respond(m)
}

// handleT serves one RPC: take an io-thread, charge the daemon's CPU, run
// the operation on the child stack, respond.
func (s *Server) handleT(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	sp := optrace.StartSpan(t, optrace.LayerServer, reqName(req))
	if s.down {
		// Refused at the listener: no io-thread is taken and no daemon
		// time is spent, like a connection reset from a dead glusterfsd.
		sp.SetAttr("down", "true")
		sp.End(t)
		respond(downResp(req))
		return
	}
	switch req.(type) {
	case *statReq, *readReq, *writeReq:
		// The data-path requests run on a pooled frame instead of a closure
		// chain.
		op := s.takeOp()
		op.t, op.req, op.respond, op.sp = t, req, respond, sp
		s.threads.AcquireT(t, 1, op.fnGranted)
		return
	}
	s.threads.AcquireT(t, 1, func() {
		// The io-thread is released before the span ends, and the response
		// leaves after both.
		done := func(m fabric.Msg) {
			s.threads.Release(1)
			sp.End(t)
			respond(m)
		}
		child := s.child
		switch r := req.(type) {
		case *openReq:
			s.chargeT(t, 0, func() {
				if r.Create {
					s.Ops["create"]++
					child.CreateT(t, r.Path, func(fd FD, err error) {
						done(&openResp{FD: fd, Code: errCode(err)})
					})
					return
				}
				s.Ops["open"]++
				child.OpenT(t, r.Path, func(fd FD, err error) {
					done(&openResp{FD: fd, Code: errCode(err)})
				})
			})
		case *closeReq:
			s.Ops["close"]++
			s.chargeT(t, 0, func() {
				child.CloseT(t, r.FD, func(err error) {
					done(&simpleResp{Code: errCode(err)})
				})
			})
		case *pathReq:
			s.Ops[r.Op]++
			s.chargeT(t, 0, func() {
				k := func(err error) { done(&simpleResp{Code: errCode(err)}) }
				switch r.Op {
				case "unlink":
					child.UnlinkT(t, r.Path, k)
				case "mkdir":
					child.MkdirT(t, r.Path, k)
				case "truncate":
					child.TruncateT(t, r.Path, r.Size, k)
				default:
					panic("gluster: unknown pathReq op " + r.Op)
				}
			})
		case *readdirReq:
			s.Ops["readdir"]++
			s.chargeT(t, 0, func() {
				child.ReaddirT(t, r.Path, func(names []string, err error) {
					done(&readdirResp{Names: names, Code: errCode(err)})
				})
			})
		default:
			panic("gluster: unknown request type")
		}
	})
}
