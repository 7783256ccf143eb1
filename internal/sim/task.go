package sim

import "fmt"

// Actor is the common face of the kernel's two execution styles: a *Proc
// (coroutine-backed, blocking primitives) and a *Task (continuation-style,
// advanced by queued events). Layers that only need the clock and the
// per-operation context slot — tracing, health accounting, span
// bookkeeping — accept an Actor so one implementation serves both.
type Actor interface {
	Env() *Env
	Now() Time
	Ctx() interface{}
	SetCtx(v interface{})
	Name() string
	String() string
}

var (
	_ Actor = (*Proc)(nil)
	_ Actor = (*Task)(nil)
)

// Task is a simulated activity written in continuation-passing style: a
// state machine advanced by plain queued events instead of a parked
// coroutine. Where a Proc pays two coroutine switches (≈ 230 ns) per blocking
// primitive, a Task's continuation is dispatched inline in scheduler context
// like any deferred function (≈ 20–50 ns), so ten thousand concurrent
// clients cost ten thousand pending closures, not ten thousand stacks.
//
// A Task never blocks. Each kernel primitive (Task.Sleep, Event.WaitFn,
// Resource.AcquireT/UseT, Barrier.WaitT) takes the rest of the computation
// as a callback and returns immediately.
// The continuation runs in scheduler context when the awaited instant or
// condition arrives. A Task's body must call End exactly once, after its
// last continuation has run; a drained event queue with un-ended Tasks is a
// deadlock, diagnosed by Run exactly as for parked processes.
//
// Determinism: the blocking forms are these primitives under Proc.Await,
// which spends no sequence number (one schedule per wake-up, zero when the
// fast path returns inline), so an activity replays the exact same (time,
// seq) event stream whether it runs as a task or is awaited by a process.
type Task struct {
	env   *Env
	name  string
	tid   int32
	ended bool
	done  *Event
	ctx   interface{}

	// front is set only on a task that fronts a process (Proc.Await; see
	// await.go). Such a task shares the process's context slot and is never
	// counted live: the process it fronts already is.
	front *fronting
}

// StartTask creates a task and schedules its body to run at the current
// virtual time, exactly as Env.Process schedules a new process's first
// slice. The body receives the task and typically arms its first
// continuation before returning.
func (e *Env) StartTask(name string, fn func(t *Task)) *Task {
	e.nextTID++
	t := &Task{env: e, name: name, tid: int32(e.nextTID)}
	t.done = NewEvent(e)
	e.tasksLive++
	e.schedule(0, func() { fn(t) })
	return t
}

// ContextTask returns a Task that serves purely as an execution context —
// an Actor identity with a clock and a per-operation context slot — for
// continuation-style code whose lifecycle is tracked by its owner rather
// than by the kernel. Pooled RPC frames use one as the server-side actor
// for span nesting and *T primitives, reusing it across every call the
// frame carries. A context task is never counted live (the caller whose
// call it serves already is), has no body of its own (see Start), and must
// never call End.
func (e *Env) ContextTask(name string) *Task {
	e.nextTID++
	return &Task{env: e, name: name, tid: int32(e.nextTID)}
}

// Start schedules fn as a context task's first slice at the current virtual
// time: the one sequence number StartTask and Env.Process spend on a new
// actor's first slice, for an owner that pools its actors and therefore
// cannot create one per activity.
func (t *Task) Start(fn func()) { t.env.schedule(0, fn) }

// Name returns the name given at creation.
func (t *Task) Name() string { return t.name }

// Env returns the environment the task belongs to.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

// Done returns an event triggered when the task calls End.
func (t *Task) Done() *Event { return t.done }

// Ctx returns the task's context slot, or nil; see Proc.Ctx. A task that
// fronts a process (Proc.Await) reads the process's slot.
func (t *Task) Ctx() interface{} {
	if t.front != nil {
		return t.front.p.ctx
	}
	return t.ctx
}

// SetCtx stores v in the task's context slot; see Proc.SetCtx. A task that
// fronts a process (Proc.Await) writes the process's slot.
func (t *Task) SetCtx(v interface{}) {
	if t.front != nil {
		t.front.p.ctx = v
		return
	}
	t.ctx = v
}

// String identifies the task for diagnostics.
func (t *Task) String() string { return fmt.Sprintf("task %d (%s)", t.tid, t.name) }

// Sleep schedules k to run after d of virtual time. It consumes one
// sequence number.
func (t *Task) Sleep(d Duration, k func()) {
	t.env.schedule(d, k)
}

// End marks the task finished and triggers its Done event. Every task must
// end exactly once; ending is what lets Run distinguish a completed
// simulation from one whose continuation chain was dropped.
//
// Ending a task that fronts a process completes that process's Await; see
// Proc.Await.
func (t *Task) End() {
	if t.ended {
		panic(fmt.Sprintf("sim: %v ended twice", t))
	}
	if t.front != nil {
		t.front.end()
		return
	}
	t.ended = true
	t.env.tasksLive--
	t.done.Trigger(nil)
}
