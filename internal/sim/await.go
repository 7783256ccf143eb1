package sim

// The adapter between the kernel's two execution styles. Every operation —
// each layer's, and the kernel's own sleep and barrier wait — is written
// once, in continuation style, against a *Task; a process reaches it
// through Await, which is the only place a process parks. Await spends no
// sequence number of its own, so a body driven by StartTask and the same
// body driven by Process+Await replay one (time, seq) event stream.

// fronting is one Await: the task handed to its body, the process that task
// fronts, and whether that process is parked waiting for it. Awaits nest
// and unwind LIFO, so a process keeps its frontings as a stack
// (Proc.fronts) and the Await at each depth reuses the one it finds there:
// the kernel's own blocking primitives — one Await each — allocate
// nothing, nested or not. A Task itself carries only the pointer back, so
// tasks that front nothing pay nothing for the adapter.
type fronting struct {
	t      Task
	p      *Proc
	parked bool
	// fnEnd is t.End, bound once for the kernel's primitives to wait with.
	fnEnd func()
}

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
// An Await whose task is never ended leaves the process parked and is
// reported by Run's deadlock check.
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
	if !f.t.ended {
		f.parked = true
		p.park()
		f.parked = false
	}
	p.depth--
}

// end completes the Await.
func (f *fronting) end() {
	f.t.ended = true
	if f.parked {
		// Hand the baton to the parked process; control returns here when
		// it next parks or finishes.
		f.p.env.wake(f.p)
	}
}
