package fabric

import (
	"imca/internal/optrace"
	"imca/internal/sim"
)

// callFrame is the complete state machine of one CallT, preallocated and
// pooled per caller node. Every step of the RPC — request wire legs, the
// serve dispatch, response wire legs, completion delivery — is a method on
// the frame, bound once into the fn* fields at
// construction, so advancing the call schedules recycled method values
// instead of minting ~15 closures per operation.
//
// Lifecycle: getFrame pops a frame (or newCallFrame grows the pool), callT
// fills the per-call fields, and the frame advances itself through the
// kernel. Once the serve side is armed the frame is held by two references
// — the caller's (dropped after the completion continuation k returns) and
// the server's (dropped when the response has been sent, or dropped on the
// floor by a cut). The last reference recycles: pooled messages are
// returned, the done event is Reset, and the frame rejoins the node's free
// list. Refcounting is what lets a call abandoned by a cut link retire
// safely while its request is still being served — the server's reference
// keeps the frame (and the request message) alive until the far side is
// done with it.
type callFrame struct {
	nd *Node // owner; immortal fields below are bound to it

	// Per-call state, reset on recycle.
	dst  *Node
	svc  *service
	req  Msg
	k    func(Msg, error)
	t    *sim.Task // caller's actor
	ls   *linkState
	sp   *optrace.Span // whole-call span
	rq   *optrace.Span // request-transfer span
	resp interface{}   // done-event value as seen by the caller

	callStart sim.Time
	refs      int

	// Request-leg wire parameters.
	wire       int64
	lat, xmit  sim.Duration
	hostReq    sim.Duration
	hostCaller sim.Duration // caller-side receive processing for the response

	// Response-leg state.
	respMsg     Msg
	rwire       int64
	rlat, rxmit sim.Duration
	hostResp    sim.Duration

	// Immortal per-frame machinery, created once.
	done *sim.Event // completion event, Reset between calls
	srv  *sim.Task  // server-side actor the handler runs on

	// Prebound continuation steps. Each is a method value on this frame;
	// binding them here is the whole point of pooling.
	fnReqCPUHeld    func()
	fnReqCPUDone    func()
	fnTxHeld        func()
	fnTxDone        func()
	fnLatDone       func()
	fnRxHeld        func()
	fnRxDone        func()
	fnDstCPUHeld    func()
	fnDstCPUDone    func()
	fnServe         func()
	fnRespond       func(Msg)
	fnRespCPUHeld   func()
	fnRespCPUDone   func()
	fnRespTxHeld    func()
	fnRespTxDone    func()
	fnRespLatDone   func()
	fnRespRxHeld    func()
	fnRespRxDone    func()
	fnRespReady     func()
	fnCallerCPUHeld func()
	fnCallerCPUDone func()
	fnCutTimeout    func()
}

// newCallFrame builds a frame for nd with every continuation prebound.
func newCallFrame(nd *Node) *callFrame {
	f := &callFrame{nd: nd}
	f.done = sim.NewEvent(nd.net.env)
	f.srv = nd.net.env.ContextTask("rpc-serve@" + nd.name)
	f.fnReqCPUHeld = f.reqCPUHeld
	f.fnReqCPUDone = f.reqCPUDone
	f.fnTxHeld = f.txHeld
	f.fnTxDone = f.txDone
	f.fnLatDone = f.latDone
	f.fnRxHeld = f.rxHeld
	f.fnRxDone = f.rxDone
	f.fnDstCPUHeld = f.dstCPUHeld
	f.fnDstCPUDone = f.dstCPUDone
	f.fnServe = f.serve
	f.fnRespond = f.respond
	f.fnRespCPUHeld = f.respCPUHeld
	f.fnRespCPUDone = f.respCPUDone
	f.fnRespTxHeld = f.respTxHeld
	f.fnRespTxDone = f.respTxDone
	f.fnRespLatDone = f.respLatDone
	f.fnRespRxHeld = f.respRxHeld
	f.fnRespRxDone = f.respRxDone
	f.fnRespReady = f.respReady
	f.fnCallerCPUHeld = f.callerCPUHeld
	f.fnCallerCPUDone = f.callerCPUDone
	f.fnCutTimeout = f.cutTimeout
	return f
}

func (f *callFrame) env() *sim.Env { return f.nd.net.env }

// framePoisonRefs marks a recycled frame while poison mode (sim.SetPoison)
// is on: the externally-reachable steps (serve, respond, completion
// delivery) panic if they run on a frame so stamped, and getFrame panics if
// it pops one without the stamp. The refcount catches a stale step the free
// list's double-push check cannot.
const framePoisonRefs = -0x5150

func (f *callFrame) checkLive() {
	if sim.Poison() && f.refs <= 0 {
		panic("fabric: use of a released call frame")
	}
}

// getFrame pops a free frame or grows the pool.
func (nd *Node) getFrame() *callFrame {
	if f := nd.frames.Pop(); f != nil {
		if sim.Poison() {
			if f.refs != framePoisonRefs {
				panic("fabric: live frame on the free list")
			}
			f.refs = 0
		}
		return f
	}
	return newCallFrame(nd)
}

// release drops one reference; the last one recycles the frame.
func (f *callFrame) release() {
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.refs < 0 {
		panic("fabric: call frame released twice")
	}
	f.recycle()
}

// recycle returns pooled messages, resets the completion event, clears the
// per-call fields, and pushes the frame back on its node's free list. By
// the time the last reference drops the waiter on done has run, so Reset
// cannot strand anyone. The request is recycled here — not when the
// caller's continuation returns — because the request of a call abandoned
// by a cut is still being read by the far side until the server reference
// drops.
func (f *callFrame) recycle() {
	if rc, ok := f.req.(Recyclable); ok {
		rc.Recycle()
	}
	if rc, ok := f.respMsg.(Recyclable); ok {
		// Responses delivered to k were recycled by finishResp already and
		// cleared from respMsg there; anything still here was never
		// delivered (a cut) and goes back to its pool now.
		rc.Recycle()
	}
	f.done.Reset()
	f.srv.SetCtx(nil)
	f.dst, f.svc, f.req, f.k, f.t, f.ls = nil, nil, nil, nil, nil, nil
	f.sp, f.rq = nil, nil
	f.resp, f.respMsg = nil, nil
	if sim.Poison() {
		f.refs = framePoisonRefs
	}
	f.nd.frames.Push(f)
}

// callT starts one pooled-frame RPC; see Node.CallT for semantics.
func callT(nd, dst *Node, svc *service, t *sim.Task, req Msg, k func(Msg, error)) {
	f := nd.getFrame()
	f.dst, f.svc, f.req, f.k, f.t = dst, svc, req, k, t
	f.callStart = t.Now()
	f.refs = 1 // the caller's reference
	f.ls = nil

	if fa := nd.net.faults; fa != nil {
		f.ls = fa.link(nd.name, dst.name)
		if f.ls.cut {
			// Connect against a partitioned peer: hang for the connect
			// timeout. One deferred event.
			f.sp = optrace.StartSpan(t, optrace.LayerNet, svc.op)
			f.sp.SetAttr("to", dst.name)
			f.env().Defer(DefaultConnectTimeout, f.fnCutTimeout)
			return
		}
	}

	f.sp = optrace.StartSpan(t, optrace.LayerNet, svc.op)
	f.sp.SetAttr("to", dst.name)
	f.rq = optrace.StartSpan(t, optrace.LayerNet, "request")

	tr := nd.net.transport
	f.wire = req.WireSize() + HeaderBytes
	f.lat, f.xmit = tr.Latency, tr.xmitTime(f.wire)
	if f.ls != nil {
		f.lat, f.xmit = f.ls.scaled(f.lat, f.xmit)
	}
	f.hostReq = tr.hostCost(f.wire)

	// Request legs: sender CPU, TX serialization, wire, RX serialization,
	// receiver CPU, one prebound step at a time. A degraded link (ls
	// non-nil) stretched lat and xmit above; a healthy one costs exactly
	// what it always has.
	nd.CPU.AcquireT(t, 1, f.fnReqCPUHeld)
}

func (f *callFrame) cutTimeout() {
	f.sp.SetAttr("result", "unreachable")
	f.sp.End(f.t)
	f.nd.UnreachableCalls++
	f.k(nil, ErrUnreachable)
	f.release()
}

// Request legs: each Acquire grants inline when uncontended, each hold is
// one deferred event.

func (f *callFrame) reqCPUHeld() { f.env().Defer(f.hostReq, f.fnReqCPUDone) }

func (f *callFrame) reqCPUDone() {
	f.nd.CPU.Release(1)
	f.nd.tx.AcquireT(f.t, 1, f.fnTxHeld)
}

func (f *callFrame) txHeld() { f.env().Defer(f.xmit, f.fnTxDone) }

func (f *callFrame) txDone() {
	f.nd.tx.Release(1)
	f.nd.TxBytes += f.wire
	f.nd.TxMsgs++
	f.env().Defer(f.lat, f.fnLatDone)
}

func (f *callFrame) latDone() { f.dst.rx.AcquireT(f.t, 1, f.fnRxHeld) }

func (f *callFrame) rxHeld() { f.env().Defer(f.xmit, f.fnRxDone) }

func (f *callFrame) rxDone() {
	f.dst.rx.Release(1)
	f.dst.RxBytes += f.wire
	f.dst.RxMsgs++
	f.dst.CPU.AcquireT(f.t, 1, f.fnDstCPUHeld)
}

func (f *callFrame) dstCPUHeld() { f.env().Defer(f.hostReq, f.fnDstCPUDone) }

func (f *callFrame) dstCPUDone() {
	f.dst.CPU.Release(1)
	f.afterRequest()
}

// afterRequest runs once the request has fully landed: the post-transfer
// cut check, then the serve dispatch and the completion wait.
func (f *callFrame) afterRequest() {
	f.checkLive()
	t := f.t
	f.rq.End(t)
	if f.ls != nil && f.ls.cut {
		// The link was cut while the request serialized.
		f.sp.SetAttr("result", "unreachable")
		f.sp.End(t)
		f.nd.UnreachableCalls++
		f.k(nil, ErrUnreachable)
		f.release()
		return
	}
	if f.ls != nil {
		f.ls.inflight = append(f.ls.inflight, f.done)
	}
	// Arm the serve side; it holds the second reference until its response
	// is sent or dropped.
	f.refs++
	// The server-side actor inherits the caller's operation context, so
	// spans it opens (daemon, storage, disk) nest under this call's span.
	// The dispatch costs one scheduled event.
	f.env().Defer(0, f.fnServe)
	optrace.Fork(t, f.srv)
	f.done.WaitFn(f.fnRespReady)
}

// respReady runs when done triggers (scheduled by Trigger, one event).
func (f *callFrame) respReady() {
	f.checkLive()
	t := f.t
	resp := f.done.Value()
	if _, aborted := resp.(unreachableMark); aborted {
		f.sp.SetAttr("result", "unreachable")
		f.sp.End(t)
		f.nd.UnreachableCalls++
		f.finishResp(nil, ErrUnreachable)
		return
	}
	f.resp = resp
	var respSize int64
	if m, ok := resp.(Msg); ok && m != nil {
		respSize = m.WireSize()
	}
	// Caller-side protocol processing for the response.
	f.hostCaller = f.nd.net.transport.hostCost(respSize + HeaderBytes)
	f.nd.CPU.AcquireT(t, 1, f.fnCallerCPUHeld)
}

func (f *callFrame) callerCPUHeld() { f.env().Defer(f.hostCaller, f.fnCallerCPUDone) }

func (f *callFrame) callerCPUDone() {
	t := f.t
	f.nd.CPU.Release(1)
	f.sp.End(t)
	f.nd.rtt.Observe(t.Now().Sub(f.callStart))
	if f.resp == nil {
		f.finishResp(nil, nil)
		return
	}
	f.finishResp(f.resp.(Msg), nil)
}

// finishResp delivers the outcome to k and drops the caller's reference.
// It runs k while the frame is still held, so a continuation that issues a
// nested CallT simply draws the next frame from the pool; the release
// afterwards is what recycles a delivered response (via recycle, once the
// server side has also let go).
func (f *callFrame) finishResp(m Msg, err error) {
	if f.ls != nil {
		f.ls.drop(f.done)
	}
	f.k(m, err)
	if m != nil {
		// Clearing the field keeps recycle from double-freeing the
		// delivered response.
		f.respMsg = nil
		if rc, ok := m.(Recyclable); ok {
			rc.Recycle()
		}
	}
	f.release()
}

// serve dispatches the handler on the frame's server actor.
func (f *callFrame) serve() {
	f.checkLive()
	f.svc.handler(f.srv, f.nd, f.req, f.fnRespond)
}

// respond is the handler's response path: the server pays its send-side
// costs (CPU, TX serialization), the response crosses the wire and
// serializes at the caller's RX port, and only then does the completion
// trigger; the server reference drops last.
func (f *callFrame) respond(resp Msg) {
	f.checkLive()
	f.respMsg = resp
	if f.ls != nil && f.ls.cut {
		// Response dropped on the floor; the caller was aborted by
		// CutLink's in-flight sweep. recycle reclaims the pooled response.
		f.release()
		return
	}
	var respSize int64
	if resp != nil {
		respSize = resp.WireSize()
	}
	tr := f.dst.net.transport
	f.rwire = respSize + HeaderBytes
	f.rlat, f.rxmit = tr.Latency, tr.xmitTime(f.rwire)
	if f.ls != nil {
		f.rlat, f.rxmit = f.ls.scaled(f.rlat, f.rxmit)
	}
	f.hostResp = tr.hostCost(f.rwire)
	f.dst.CPU.AcquireT(f.srv, 1, f.fnRespCPUHeld)
}

func (f *callFrame) respCPUHeld() { f.env().Defer(f.hostResp, f.fnRespCPUDone) }

func (f *callFrame) respCPUDone() {
	f.dst.CPU.Release(1)
	f.dst.tx.AcquireT(f.srv, 1, f.fnRespTxHeld)
}

func (f *callFrame) respTxHeld() { f.env().Defer(f.rxmit, f.fnRespTxDone) }

func (f *callFrame) respTxDone() {
	f.dst.tx.Release(1)
	f.dst.TxBytes += f.rwire
	f.dst.TxMsgs++
	f.env().Defer(f.rlat, f.fnRespLatDone)
}

func (f *callFrame) respLatDone() { f.nd.rx.AcquireT(f.srv, 1, f.fnRespRxHeld) }

func (f *callFrame) respRxHeld() { f.env().Defer(f.rxmit, f.fnRespRxDone) }

func (f *callFrame) respRxDone() {
	f.nd.rx.Release(1)
	f.nd.RxBytes += f.rwire
	f.nd.RxMsgs++
	f.done.Trigger(f.respMsg)
	f.release()
}
