package sim

import "fmt"

// The adapter between the kernel's two execution styles. Every operation —
// each layer's, and the kernel's own sleep, wait, acquire and barrier — is
// written once, in continuation style, against a *Task; a process reaches
// it through Await, which is the only place a process parks, and
// continuation code reaches a layer that only exists in blocking form
// through Block. Neither spends a sequence number of its own, so a stack
// driven by StartTask and the same stack driven by Process+Await replay one
// (time, seq) event stream.

// fronting is one Await: the task handed to its body, the process that task
// fronts, and where that process currently is. Awaits nest and unwind
// LIFO, so a process keeps its frontings as a stack (Proc.fronts) and the
// Await at each depth reuses the one it finds there: the kernel's own
// blocking primitives — one Await each — allocate nothing, nested or not.
// A Task itself carries only the pointer back, so tasks that front nothing
// pay nothing for the adapter.
type fronting struct {
	t     Task
	p     *Proc
	state awaitState
	// fnEnd is t.End, bound once for the kernel's primitives to wait with.
	fnEnd func()
	// blockFn and blockK hold a Block not yet run: across the wake to the
	// process parked in Await, or until the continuation that issued it
	// returns (see runBlocked).
	blockFn func(p *Proc)
	blockK  func()
}

// awaitState is where the fronted process currently is.
type awaitState uint8

const (
	// awaitInline: the process is running the task's code on its own
	// coroutine — Await's body, or a continuation after a Block.
	awaitInline awaitState = iota
	// awaitParked: the process is parked in Await; the task's
	// continuations run in scheduler context.
	awaitParked
	// awaitBlocked: the process is running Block's blocking function, and
	// may be parked inside it on any primitive.
	awaitBlocked
	// awaitChained: the process is running Block's continuation, where a
	// further Block is queued, not run (see runBlocked).
	awaitChained
)

// Await runs body on a task that fronts the calling process and returns
// once that task has ended. The task shares the process's context slot
// (Ctx/SetCtx), so spans opened on either side are seen by both.
//
// body runs inline, on the process's own coroutine. If it ends the task
// before returning — the operation hit a fast path — Await returns without
// parking. Otherwise the process parks and the task's continuations run in
// scheduler context, like any task's; the continuation that calls End
// hands control straight to the parked process with the kernel's ordinary
// wake (a coroutine switch), inside the event being dispatched. No event is scheduled
// for the hand-off, so the operation consumes exactly the sequence numbers
// its continuations do.
//
// Because the process resumes inside End, the continuation's caller is
// still on the scheduler's stack while the process runs on: whatever a
// layer only lends to its continuation (pooled messages, scratch results)
// must be copied before End, not after Await returns.
//
// Awaits nest — Await → Block → Await, a task-style layer over a blocking
// one over a task-style one — and unwind innermost first. An Await whose
// task is never ended leaves the process parked and is reported by Run's
// deadlock check.
func (p *Proc) Await(body func(t *Task)) {
	if p.depth == len(p.fronts) {
		f := &fronting{p: p}
		f.fnEnd = f.t.End
		p.fronts = append(p.fronts, f)
	}
	f := p.fronts[p.depth]
	p.depth++
	f.t = Task{env: p.env, name: p.name, front: f}
	body(&f.t)
	for !f.t.ended {
		f.state = awaitParked
		p.park()
		f.state = awaitInline
		f.runBlocked()
	}
	p.depth--
}

// end completes the Await.
func (f *fronting) end() {
	if f.state == awaitBlocked {
		panic(fmt.Sprintf("sim: %v ended while %v is busy in Block", &f.t, f.p))
	}
	f.t.ended = true
	if f.state == awaitParked {
		// Hand the baton to the parked process; control returns here when
		// it next parks or finishes.
		f.p.env.wake(f.p)
	}
}

// Block runs the blocking function fn on the process t fronts, then runs
// k. It is how continuation-style code calls a layer that exists only in
// blocking form: fn may park on any primitive, spawn, or Await in turn.
//
// When the process is itself running the calling code (an Await body or a
// continuation reached inline from it), fn and k simply run. When the
// process is parked in Await and the caller is a continuation in scheduler
// context, Block wakes the process to run fn and k on its own coroutine
// and returns when it next parks. Like End's hand-off this schedules
// nothing: the only sequence numbers spent are fn's own.
//
// A Block issued from inside the continuation of an earlier one — a loop
// of blocking calls written as continuations — is queued and runs when
// that continuation returns, so the loop runs at a constant stack depth
// however many calls it makes.
//
// Block panics if t fronts no process (it was created by StartTask or
// ContextTask: there is no process to block), if its Await has already
// ended, or if the process is already inside a Block on t, or has one
// queued — one process runs one blocking call at a time.
func (t *Task) Block(fn func(p *Proc), k func()) {
	f := t.front
	if f == nil {
		panic(fmt.Sprintf("sim: %v fronts no process: Block needs a task from Proc.Await", t))
	}
	if t.ended {
		panic(fmt.Sprintf("sim: Block on %v after it ended", t))
	}
	if f.state == awaitBlocked || f.blockFn != nil {
		panic(fmt.Sprintf("sim: %v is busy: Block on %v while an earlier Block is still running", f.p, t))
	}
	f.blockFn, f.blockK = fn, k
	switch f.state {
	case awaitInline:
		f.runBlocked()
	case awaitParked:
		f.p.env.wake(f.p)
	}
}

// runBlocked runs the queued Block's fn then k on the fronted process's
// coroutine, and then each Block that k queued in turn: a trampoline, so
// k's Block does not nest a call to runBlocked inside k.
func (f *fronting) runBlocked() {
	for f.blockFn != nil {
		fn, k := f.blockFn, f.blockK
		f.blockFn, f.blockK = nil, nil
		f.state = awaitBlocked
		fn(f.p)
		f.state = awaitChained
		k()
		f.state = awaitInline
	}
}
