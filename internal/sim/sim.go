// Package sim implements a deterministic discrete-event simulation kernel.
//
// Time is virtual: the clock advances only when an activity waits on one of
// the kernel's primitives (a sleep, an Event, a Resource, a Barrier). The
// kernel runs exactly one activity at a time and orders simultaneous events
// by creation sequence, so a simulation is fully deterministic and
// race-free without locks.
//
// A simulated activity is written in one of two styles.
//
// A Task is a state machine in continuation-passing style: each waiting
// point takes the rest of the computation as a callback (Task.Sleep,
// Event.WaitFn, Resource.AcquireT/UseT, Barrier.WaitT) that the kernel
// dispatches as a plain event. It costs no coroutine and no stack, so it is
// the form for anything that runs per operation or in large numbers — and
// the form every layer of the simulated storage stack is written in:
//
//	env := sim.NewEnv()
//	env.StartTask("client", func(t *sim.Task) {
//		t.Sleep(10*time.Microsecond, func() {
//			// ... next step; eventually:
//			t.End()
//		})
//	})
//	env.Run()
//
// A Proc is an ordinary Go function running on a coroutine of its own, which
// blocks in virtual time (p.Sleep returns when the time has passed). It is
// the clearest way to write low-cardinality control logic — benchmark
// drivers, set-up passes, fault injectors, interactive shells — and all
// kernel methods that take a *Proc must be called from that process's own
// body while it is the running process:
//
//	env.Process("setup", func(p *sim.Proc) {
//		p.Sleep(10 * time.Microsecond)
//	})
//
// The two meet in one adapter (await.go). Proc.Await runs continuation
// code on behalf of a process and returns when it has finished, which is
// how every blocking call in the tree — the kernel's own Proc.Sleep and
// Barrier.Wait included — is derived from its task-style implementation.
// It spends no sequence number, so the same activity replays the same
// (time, seq) event stream whichever way it is driven.
//
// # Dispatch cost
//
// One kind of event exists: a function the dispatch loop calls in
// scheduler context, and a continuation is the only thing that waits. A
// process is woken by the continuation that ends its Await, which hands
// control over inside that event with two switches of the Go runtime's
// coroutines (iter.Pull: into the process, and back when it next parks) —
// about 230 ns a wake (BenchmarkDispatch) against 20–50 ns for a task's
// continuation or a deferred function (Env.Defer), which are plain calls;
// so anything that runs per operation is a task, and timeouts and other
// bookkeeping that needs no process of its own should use Defer. A switch
// runs on the caller's OS thread and schedules nothing, so which engine
// carries an activity cannot move an (at, seq).
//
// A process keeps its coroutine, and the stack it has grown, across pooled
// lives: spawning one in steady state (a driver client per run, a set-up
// pass) is one switch and no allocation (BenchmarkSpawn). When Run
// drains it stops every idle coroutine, so no goroutine outlives a
// finished run. A panic in a process body — or runtime.Goexit, which is
// what t.FailNow is — surfaces from Env.Run on its caller's goroutine with
// its value intact, where a recover (or the testing package) can see it.
// The traceback is Run's, not the body's, and the simulation is lost — other
// processes may be stranded mid-operation — though the kernel stays usable:
// a Proc whose coroutine died is never pooled.
//
// Env.Run reaches pending work through one function, next(), over a queue
// in three parts shaped like the traffic simulations put on it, whose
// union pops in exactly (at, seq) order:
//
//   - due, a FIFO of the functions scheduled for the current instant
//     (Event.Trigger, Resource.Release, a new actor's first slice,
//     Defer(0)) — about one event in six. It stores no timestamp and no
//     sequence number, and sifts nothing, because its order is already
//     right: (1) anything in a heap for the instant now was scheduled
//     while the clock was earlier, so it precedes everything in due;
//     (2) due is appended in schedule order, which is seq order; (3) due
//     drains before the clock moves, so nothing in it is ever late. Hence
//     next() takes the heaps' top while it is at now, then due front to
//     back, then the heaps' top at a later instant.
//   - near, delay lanes behind a heap of their heads, for delays below one
//     constant, nearHorizon: the microsecond steps of the operations in
//     flight. A lane is a FIFO of the pending events of one delay, found
//     by a hash of the delay in a table of nLanes. Its first event waits
//     in the heap as its head; later ones append to the lane, and
//     dispatching a head puts the lane's next event in its place with one
//     sift-down. Events of one delay scheduled at a clock that never goes
//     back are already in (at, seq) order, so a lane needs no sorting, and
//     the heap orders a stat's eight delays, not its thirteen steps times
//     the operations in flight. A delay whose two slots hold other delays'
//     busy lanes waits in the heap on its own.
//   - far, a heap of everything later: think times and arrival timers,
//     which the steps of near then never sift through.
//
// next() compares the two heaps' tops. nearHorizon and the lane table
// decide only where an event waits, never when it runs. Both heaps are
// 4-ary min-heaps of {at, seq, fn} values ordered by (at, seq), whose pop
// picks the smallest of four children without a data-dependent branch
// (lessMask). Scheduling allocates nothing: heap events live by value in a
// backing array whose vacated slots are recycled in place, a lane's ring
// grows to the most events ever waiting in it, and due is reused from its
// start every time it empties.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for virtual intervals; virtual and wall
// durations share units but never mix clocks.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a function scheduled to run in scheduler context at a later
// instant. Events are stored by value in a heap's backing array, so
// scheduling one allocates nothing.
type event struct {
	at Time
	// seq is the schedule's sequence number shifted left by laneBits; an
	// event heading a lane in near carries 1 + the lane's index in the bits
	// below. Sequence numbers are unique, so the tag never decides an
	// order, and 2^57 schedules (centuries at the kernel's rate) fit.
	seq uint64
	fn  func()
}

// laneBits is the width of a lane tag in event.seq.
const laneBits = 7

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A wide
// shallow heap does fewer, cache-friendlier levels than a binary one for
// the queue sizes simulations reach, and holding values instead of
// pointers removes both the per-event allocation and the container/heap
// interface boxing the kernel used to pay on every schedule/dispatch.
type eventHeap []event

// before reports whether a sorts before b: earlier time first, creation
// order breaking ties (seq is unique, so the order is total).
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lessMask is before as a mask: all ones when a sorts before b, zero
// otherwise. It compares (at, seq) as one 128-bit unsigned number — the
// borrow out of seq's subtraction carried into at's — which agrees with
// before because no event's time is negative (schedule refuses an instant
// before now, and the clock starts at zero). The sift-down selects the
// smallest of four children with it, where a compare-and-branch on what is
// in effect random data mispredicts every other time.
func lessMask(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return -int(borrow)
}

// push adds ev, restoring the heap property by sifting up.
func (h *eventHeap) push(ev event) {
	// Amortised growth: the heap's backing array grows only to the most
	// events ever pending at once.
	a := append(*h, ev)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
	*h = a
}

// replaceTop puts last in the minimum's place, restoring the heap property
// by sifting it down from the root.
func (h *eventHeap) replaceTop(last event) {
	a := *h
	n := len(a)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			// A full group, as every level but the last has: the
			// smallest of four with no data-dependent branch, by two
			// independent comparisons and one between their winners.
			lo := first + 1&lessMask(&a[first+1], &a[first])
			hi := first + 2 + 1&lessMask(&a[first+3], &a[first+2])
			best = lo + (hi-lo)&lessMask(&a[hi], &a[lo])
		} else {
			for c := first + 1; c < n; c++ {
				best += (c - best) & lessMask(&a[c], &a[best])
			}
		}
		if !before(&a[best], &last) {
			break
		}
		a[i] = a[best]
		i = best
	}
	a[i] = last
}

// lane is a FIFO of the near events of one delay behind its head, which
// waits in near (see the package comment). ring is a power-of-two ring
// holding n events from head; it grows to the most ever waiting behind one
// head and is never shrunk.
type lane struct {
	ring    []event
	head, n int
}

// nLanes is the size of the lane table: a delay is filed in the lane of its
// hash slot or the next one, whichever is idle or already holds it.
const nLanes = 64

// laneSlot is the table slot of delay d: a multiplicative (Fibonacci) hash.
func laneSlot(d Duration) int { return int(uint64(d) * 0x9E3779B97F4A7C15 >> 58) }

func (l *lane) push(ev event) {
	if l.n == len(l.ring) {
		grown := make([]event, max(4, 2*l.n))
		for i := range l.n {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
}

func (l *lane) pop() event {
	ev := l.ring[l.head]
	l.ring[l.head] = event{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// Env is a simulation environment: a virtual clock plus the set of
// processes and pending events that advance it.
type Env struct {
	now Time
	seq uint64

	// The pending events, in three parts whose union next() drains in
	// (at, seq) order; see schedule and next.
	due       []func() // due[dueHead:] run at now, in scheduling order
	dueHead   int
	near, far eventHeap // later instants, split by delay at nearHorizon
	living    int       // processes started and not yet finished
	parked    int       // processes blocked on a primitive
	nextPID   int

	tasksLive int // tasks started and not yet ended
	nextTID   int

	// procFree holds the Procs between lives — struct, prebound starter,
	// frontings, and the coroutine with the stack it has grown, idle in lives
	// — so spawning a process in steady state is one coroutine switch and
	// allocates nothing. Only a live coroutine puts its Proc here, so one
	// that ended in a panic or Goexit is never handed out again; a drained
	// Run stops the coroutines (next == nil) and the next life of each Proc
	// starts a new one. No pending event references a Proc — one is woken
	// only from inside its own Await — so a recycled identity cannot be woken
	// by its previous life's events.
	procFree Free[Proc]

	// EventsProcessed counts dispatched events — a cheap measure of how
	// much simulated activity a run performed, useful when comparing the
	// cost of scenarios or hunting runaway models.
	EventsProcessed uint64

	// Tick hook: an observer callback fired at fixed virtual intervals
	// (see SetTick). It lives outside the event queue so installing it
	// never perturbs event ordering, sequence numbers, or the clock.
	tickInterval Duration
	tickNext     Time
	tickFn       func(at Time)

	// The near events behind a lane head, by delay: laneDelay[i] is the
	// delay lanes[i] holds while its head is in near, 0 while it is idle.
	laneDelay [nLanes]Duration
	lanes     [nLanes]lane
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// nearHorizon is the delay at which a scheduled event goes to the far heap
// instead of the near one. It decides only where an event waits — next()
// compares the two tops — so no value of it can change the order events
// run in. It sits in the gap of the delays the stack produces: the steps of
// an operation in flight (wire, CPU and service times) are tens of
// microseconds at most, think times and timers a millisecond and up, so
// the steps sift through a heap the size of the operations in flight, not
// of the clients that exist.
const nearHorizon = 64 * time.Microsecond

// schedule enqueues fn to run d from now, after everything already
// scheduled for that instant.
func (e *Env) schedule(d Duration, fn func()) {
	at := e.now.Add(d)
	if at < e.now {
		panic(fmt.Sprintf("sim: delay %d ns at %v is negative or overflows virtual time", int64(d), e.now))
	}
	e.seq++
	ev := event{at: at, seq: e.seq << laneBits, fn: fn}
	switch {
	case d == 0:
		// Amortised growth: due empties before the clock moves, so its
		// backing array grows only to the most events ever scheduled within
		// one instant.
		e.due = append(e.due, fn)
	case d >= nearHorizon:
		e.far.push(ev)
	default:
		i := e.laneOf(d)
		if i >= 0 && e.laneDelay[i] == d {
			e.lanes[i].push(ev)
			break
		}
		if i >= 0 {
			e.laneDelay[i] = d
			ev.seq |= uint64(i + 1)
		}
		e.near.push(ev)
	}
}

// next removes and returns the pending function that is first in (at, seq)
// order, moving the clock to its instant; nil when nothing is pending. The
// rule — the heaps' top while it is at now, then due front to back, and
// only then the heaps' top and a later clock — is argued in the package
// comment ("Dispatch cost").
func (e *Env) next() func() {
	h := &e.near
	if len(e.far) > 0 && (len(e.near) == 0 || before(&e.far[0], &e.near[0])) {
		h = &e.far
	}
	if e.dueHead < len(e.due) && (len(*h) == 0 || (*h)[0].at != e.now) {
		fn := e.due[e.dueHead]
		e.due[e.dueHead] = nil
		e.dueHead++
		if e.dueHead == len(e.due) {
			e.due, e.dueHead = e.due[:0], 0
		}
		return fn
	}
	if len(*h) == 0 {
		return nil
	}
	a := *h
	ev := a[0]
	tag := ev.seq & (1<<laneBits - 1)
	var last event
	if l := &e.lanes[(tag-1)%nLanes]; tag != 0 && l.n > 0 {
		// The lane's next event takes its head's place.
		last = l.pop()
		last.seq |= tag
	} else {
		if tag != 0 {
			e.laneDelay[(tag-1)%nLanes] = 0 // drained: idle until a delay claims it
		}
		// The heap's last event takes it. Its vacated slot is zeroed so the
		// backing array (the kernel's event free list) does not pin dead
		// closure references.
		n := len(a) - 1
		last, a[n] = a[n], event{}
		*h = a[:n]
	}
	if len(*h) > 0 {
		h.replaceTop(last)
	}
	e.now = ev.at
	return ev.fn
}

// laneOf returns the index of the lane an event of delay d joins — the one
// at d's slot or the next that is idle or busy with d — or -1 when both are
// busy with other delays and the event waits in near on its own.
func (e *Env) laneOf(d Duration) int {
	i := laneSlot(d)
	if k := e.laneDelay[i]; k != d && k != 0 {
		i = (i + 1) % nLanes
		if k := e.laneDelay[i]; k != d && k != 0 {
			return -1
		}
	}
	return i
}

// Defer schedules fn to run in scheduler context at the current time plus
// d. Dispatching it pays no coroutine switch — it is a plain call between
// events — so it is the cheap way to express timeouts, sensors, and other
// bookkeeping that does not need a blocking process of its own.
//
// fn runs between event dispatches, when no process is mid-action. It may
// schedule further work (trigger events, call Defer, create processes) but
// must not call process primitives (Sleep, Await, Barrier.Wait, …): there
// is no process to block.
func (e *Env) Defer(d Duration, fn func()) {
	if fn == nil {
		panic("sim: nil deferred function")
	}
	e.schedule(d, fn)
}

// Proc is a simulated process: a function running on a coroutine of its own
// (iter.Pull), which the scheduler switches into and which switches back
// whenever the process parks or finishes. Its methods must be called only
// from its own body while it is the running process. A panic or
// runtime.Goexit in the body surfaces from Env.Run; see the package comment.
type Proc struct {
	env  *Env
	name string
	pid  int
	ctx  interface{}

	// body holds the process function between Process and the starter
	// event firing; start is the prebound starter closure, created once
	// per Proc and reused across pooled lives so Process schedules it
	// without allocating.
	body  func(p *Proc)
	start func()
	// The coroutine, running lives: next switches into it and returns when
	// it next parks or finishes a life, yield — called on the coroutine — is
	// that switch back, and stop ends an idle one.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// fronts[:depth] are the Awaits the process is inside, outermost first;
	// the rest wait to be reused (see fronting).
	fronts []*fronting
	depth  int
}

// Name returns the name given at creation.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Ctx returns the process's context slot, or nil. The slot is opaque to the
// kernel; higher layers (e.g. optrace) use it to attach per-operation state
// without widening every call signature.
func (p *Proc) Ctx() interface{} { return p.ctx }

// SetCtx stores v in the process's context slot. It may be called by the
// process itself, or by its creator before the new process first runs
// (e.g. to hand an RPC handler the caller's operation context); the kernel
// runs one activity at a time, so the slot needs no locking.
func (p *Proc) SetCtx(v interface{}) { p.ctx = v }

// String identifies the process for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.pid, p.name) }

// Process creates a process that will start at the current virtual time
// (when the scheduler next reaches it). It may be called before Run or from
// a running process.
func (e *Env) Process(name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := e.procFree.Pop()
	if p == nil {
		p = &Proc{env: e}
		p.start = func() { p.next() }
	}
	p.ctx = nil
	if p.next == nil {
		//imcalint:allow nogoroutine the kernel itself multiplexes process coroutines, one running at a time
		p.next, p.stop = iter.Pull(p.lives)
	}
	p.name, p.pid, p.body = name, e.nextPID, fn
	e.living++
	e.schedule(0, p.start)
	return p
}

// lives is the body of p's coroutine: one process life per switch into it
// while idle, each ending with the Proc back in the pool and a switch out.
// It returns, ending the coroutine, when Run stops it.
func (p *Proc) lives(yield func(struct{}) bool) {
	p.yield = yield
	for {
		body := p.body
		p.body = nil
		body(p)
		p.env.living--
		p.env.procFree.Push(p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// park switches from the calling process back to the scheduler; the process
// resumes when a continuation of the Await it is parked in wakes it.
func (p *Proc) park() {
	p.env.parked++
	p.yield(struct{}{})
	p.env.parked--
}

// Sleep advances the process by d of virtual time. A zero sleep lets any
// other activity scheduled for the current instant run first.
func (p *Proc) Sleep(d Duration) {
	p.Await(func(t *Task) { t.Sleep(d, t.front.fnEnd) })
}

// wake switches to the parked process p and returns when it next parks or
// finishes. Must be called in scheduler context only.
func (e *Env) wake(p *Proc) { p.next() }

// SetTick installs fn as the environment's tick observer: it is invoked
// with each boundary time now, now+interval, now+2·interval, … as the
// clock reaches or passes it. A nil fn removes the observer.
//
// The callback runs in scheduler context between event dispatches, when no
// process is mid-action, so a read-only observer sees a consistent snapshot
// of simulation state as of the boundary instant (state only changes when
// events run, and none ran between the previous event and the boundary).
// Because the hook schedules nothing, installing it cannot change a
// simulation's behaviour — results are byte-identical with it on or off.
// The callback must not call process primitives (Sleep, Await, …).
func (e *Env) SetTick(interval Duration, fn func(at Time)) {
	if fn == nil {
		e.tickFn = nil
		return
	}
	if interval <= 0 {
		panic("sim: non-positive tick interval")
	}
	e.tickInterval = interval
	e.tickNext = e.now.Add(interval)
	e.tickFn = fn
}

// fireTicks invokes the tick observer for every boundary at or before the
// current time. Boundaries coinciding with an event's timestamp fire before
// that event is dispatched.
func (e *Env) fireTicks() {
	for e.tickFn != nil && e.tickNext <= e.now {
		at := e.tickNext
		e.tickNext = at.Add(e.tickInterval)
		e.tickFn(at)
	}
}

// Run processes events until none remain. It returns the final virtual
// time. If processes remain parked with no pending events, the simulation
// is deadlocked and Run panics with a diagnostic, since that always
// indicates a modelling bug. A panic or runtime.Goexit in a process body
// unwinds Run on its caller's goroutine. On the way out Run stops the idle
// process coroutines, so a finished run leaves no goroutine behind.
func (e *Env) Run() Time {
	for fn := e.next(); fn != nil; fn = e.next() {
		if e.tickFn != nil {
			e.fireTicks()
		}
		e.EventsProcessed++
		fn()
	}
	for _, p := range e.procFree {
		p.stop()
		p.next = nil
	}
	if e.living > 0 && e.parked == e.living {
		panic(fmt.Sprintf("sim: deadlock at %v: %d process(es) parked with no pending events", e.now, e.parked))
	}
	if e.tasksLive > 0 {
		panic(fmt.Sprintf("sim: deadlock at %v: %d task(s) un-ended with no pending events", e.now, e.tasksLive))
	}
	return e.now
}
