package memcache

import (
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SimServer is a memcached daemon attached to a fabric node inside the
// simulation. Like memcached 1.2 of the paper's era, the daemon itself is
// single-threaded: cache operations serialize on one event loop, while
// kernel TCP processing (the fabric's host overhead) uses the node's other
// cores.
type SimServer struct {
	node   *fabric.Node
	store  *Store
	daemon *sim.Resource
	down   bool
	// slow > 1 stretches every service-time charge by that factor: the
	// gray-failure mode where the daemon answers correctly but slowly
	// (swapping, a sick disk under the slab allocator, a hot neighbor).
	slow float64

	// ops is the free list of pooled request state machines (see srvOp).
	ops sim.Free[srvOp]
}

// NewSimServer starts an MCD on node with the given memory limit.
func NewSimServer(node *fabric.Node, limitBytes int64) *SimServer {
	env := node.Network().Env()
	s := &SimServer{
		node:   node,
		store:  NewStore(limitBytes, func() int64 { return int64(env.Now().Seconds()) }),
		daemon: sim.NewResource(env, DaemonThreads),
	}
	node.HandleT(ServiceName, s.handleT)
	return s
}

// Node returns the fabric node the daemon runs on.
func (s *SimServer) Node() *fabric.Node { return s.node }

// Store exposes the cache engine for stats inspection.
func (s *SimServer) Store() *Store { return s.store }

// Fail kills the daemon: its contents are lost and requests are refused
// until Recover. The paper's §4.4 argues MCD failures never affect
// correctness because writes are persistent at the server first.
func (s *SimServer) Fail() {
	s.down = true
	s.store.FlushAll()
}

// Recover restarts the daemon (empty, as a restarted memcached would be).
func (s *SimServer) Recover() { s.down = false }

// Down reports whether the daemon is failed.
func (s *SimServer) Down() bool { return s.down }

// SetSlowdown makes the daemon gray: every service-time charge is
// stretched by f (> 1). The daemon still answers correctly — no errors,
// no Down replies — which is exactly why consecutive-failure ejection
// never catches it and latency suspicion exists. f <= 1 restores full
// speed.
func (s *SimServer) SetSlowdown(f float64) {
	if f <= 1 {
		s.slow = 0
		return
	}
	s.slow = f
}

// Slowdown returns the current gray stretch factor (1 when healthy).
func (s *SimServer) Slowdown() float64 {
	if s.slow > 1 {
		return s.slow
	}
	return 1
}

// stretch applies the gray slowdown to one service-time charge.
func (s *SimServer) stretch(d sim.Duration) sim.Duration {
	if s.slow > 1 {
		return sim.Duration(float64(d) * s.slow)
	}
	return d
}

// srvOp is the daemon's request state machine, pooled per SimServer. One op
// carries one request from daemon admission through CPU charges to the
// response, on continuations prebound at construction, so a steady-state
// request allocates nothing. The response message lives inside the op and
// carries a backpointer; when the fabric recycles a delivered (or abandoned)
// response, the op returns to its server's free list.
type srvOp struct {
	s       *SimServer
	t       *sim.Task
	req     *request
	respond func(fabric.Msg)
	sp      *optrace.Span
	svcTime sim.Duration

	resp response
	// items holds a get's hit snapshots by value; ptrs aliases into it for
	// resp.items, and hits says which key each was found for, resp.hits.
	// All keep their capacity across reuses.
	items []Item
	ptrs  []*Item
	hits  []int

	fnDaemonHeld func()
	fnCPUHeld    func()
	fnCPUDone    func()
	fnCopyHeld   func()
	fnCopyDone   func()
}

// release returns the op to its server's pool; called by the pooled
// response's Recycle when the fabric retires the call.
func (op *srvOp) release() {
	op.t, op.req, op.respond, op.sp = nil, nil, nil, nil
	op.resp = response{op: op}
	op.hits = op.hits[:0]
	for i := range op.ptrs {
		op.ptrs[i] = nil
	}
	for i := range op.items {
		op.items[i] = Item{}
	}
	op.s.ops.Push(op)
}

// handleT serves one request continuation-style: daemon admission, per-key
// CPU, storage access, copy CPU.
func (s *SimServer) handleT(t *sim.Task, from *fabric.Node, req fabric.Msg, respond func(fabric.Msg)) {
	r := req.(*request)
	sp := optrace.StartSpan(t, optrace.LayerMCDSrv, r.verb.String())
	if s.down {
		sp.SetAttr("down", "true")
		sp.End(t)
		// Connection refused: the kernel answers with a reset after one
		// wire round trip; no daemon time is spent. Down replies are rare
		// (failure experiments), so they are not pooled.
		respond(&response{down: true})
		return
	}
	op := s.ops.Pop()
	if op == nil {
		op = &srvOp{s: s}
		op.resp.op = op
		op.fnDaemonHeld = op.daemonHeld
		op.fnCPUHeld = op.cpuHeld
		op.fnCPUDone = op.cpuDone
		op.fnCopyHeld = op.copyHeld
		op.fnCopyDone = op.copyDone
	}
	op.t, op.req, op.respond, op.sp = t, r, respond, sp
	s.daemon.AcquireT(t, 1, op.fnDaemonHeld)
}

func (op *srvOp) daemonHeld() {
	r := op.req
	d := PerKeyServiceTime
	switch r.verb {
	case verbGet:
		d = sim.Duration(r.keys.len()) * PerKeyServiceTime
	case verbSet:
		d += copyTime(r.item.Value.Len())
	}
	op.svcTime = op.s.stretch(d)
	op.s.node.CPU.AcquireT(op.t, 1, op.fnCPUHeld)
}

func (op *srvOp) cpuHeld() { op.t.Sleep(op.svcTime, op.fnCPUDone) }

func (op *srvOp) cpuDone() {
	s, r := op.s, op.req
	s.node.CPU.Release(1)
	if s.down {
		// The daemon crashed while this request was in service: the store
		// was flushed, so applying the mutation (or serving the stale
		// snapshot) would resurrect pre-crash state — the divergence the
		// replica-coherence audit exists to catch. Answer like a
		// connection reset instead; nothing is applied.
		op.resp.down = true
		op.finish()
		return
	}
	switch r.verb {
	case verbGet:
		items, hits := op.items[:0], op.hits[:0]
		var moved int64
		for i := range r.keys.len() {
			if it, ok := s.store.GetView(r.keys.at(i), nil); ok {
				items = append(items, it)
				hits = append(hits, i)
				moved += it.Value.Len()
			}
		}
		op.items, op.hits = items, hits
		ptrs := op.ptrs[:0]
		for i := range items {
			ptrs = append(ptrs, &items[i])
		}
		op.ptrs = ptrs
		op.resp.items, op.resp.hits, op.resp.keys = ptrs, hits, &r.keys
		if moved > 0 {
			// Copy-out cost for the hit bytes: a second CPU use.
			op.svcTime = s.stretch(copyTime(moved))
			s.node.CPU.AcquireT(op.t, 1, op.fnCopyHeld)
			return
		}
	case verbSet:
		if err := apply(s.store, verbSet, r.keys.at(0), &r.item); err != nil {
			op.resp.err = err.Error()
		}
	case verbDelete:
		op.resp.found = deleteKey(s.store, r.keys.at(0)) == nil
	}
	op.finish()
}

func (op *srvOp) copyHeld() { op.t.Sleep(op.svcTime, op.fnCopyDone) }

func (op *srvOp) copyDone() {
	op.s.node.CPU.Release(1)
	op.finish()
}

// finish releases the daemon, closes the span, and sends the response, in
// that order.
func (op *srvOp) finish() {
	t, respond := op.t, op.respond
	op.s.daemon.Release(1)
	op.sp.End(t)
	respond(&op.resp)
}
