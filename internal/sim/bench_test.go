package sim

import (
	"testing"
	"time"
)

// BenchmarkDispatch measures the process wake path: one process sleeping
// repeatedly, so every iteration is a schedule + dispatch + the two
// coroutine switches of a park and a wake. This is the price of a real
// process wake-up.
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Process("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkSpawn measures a pooled process life, the shape of a blocking
// RPC handler: each iteration the parent spawns a child that sleeps once and
// triggers it — the child's start, park, wake and finish and the parent's
// park and wake, on a pooled Proc that kept its coroutine. The kernel
// allocates nothing for it.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	done := NewEvent(env)
	child := func(c *Proc) {
		c.Sleep(1)
		done.Trigger(nil)
	}
	env.Process("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			done.Reset()
			env.Process("child", child)
			waitEvent(p, done)
		}
	})
	b.ResetTimer()
	env.Run()
}

// benchChain is one self-re-arming sleeper on a prebound step, so a chain
// allocates nothing per event. Chains share one budget of events and stop
// re-arming when it is spent: a run dispatches one start per chain plus
// exactly the budget.
type benchChain struct {
	t       *Task
	periods []Duration // slept in turn, one per step
	turn    int
	left    *int
	fn      func()
}

func (c *benchChain) step() {
	if *c.left <= 0 {
		return
	}
	*c.left--
	d := c.periods[c.turn]
	c.turn = (c.turn + 1) % len(c.periods)
	c.t.Sleep(d, c.fn)
}

func startChain(env *Env, periods []Duration, left *int) {
	c := &benchChain{t: env.ContextTask("chain"), periods: periods, left: left}
	c.fn = c.step
	c.t.Start(c.fn)
}

// startChains arms n chains, chain i sleeping base+i·stride per step.
func startChains(env *Env, n int, base, stride Duration, left *int) {
	for i := 0; i < n; i++ {
		startChain(env, []Duration{base + Duration(i)*stride}, left)
	}
}

// BenchmarkTaskDispatch is BenchmarkDispatch on the continuation engine:
// one task sleeping repeatedly, so every iteration is a schedule + dispatch
// + plain call with no coroutine switch and one pending event. Comparing
// the two gives the per-client-operation saving of the task engine.
func BenchmarkTaskDispatch(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	left := b.N
	startChains(env, 1, 1, 0, &left)
	b.ResetTimer()
	env.Run()
}

// BenchmarkDispatchShallow is a closed loop of tens of pending events, all
// a few microseconds out, with every delay distinct: 64 chains with
// distinct periods, so the queue's order keeps changing and no two events
// share a lane.
func BenchmarkDispatchShallow(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	left := b.N
	startChains(env, 64, time.Microsecond, 1, &left)
	b.ResetTimer()
	env.Run()
}

// BenchmarkDispatchLanes is the closed-loop regime stat_hit measures: 64
// chains, each cycling through the eight distinct delays of a stat's near
// events (a FUSE crossing, wire and service times of one IPoIB round trip
// to an MCD), starting at staggered points of the cycle.
func BenchmarkDispatchLanes(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	left := b.N
	stat := []Duration{28, 354, 628, 6000, 10124, 10220, 22000, 25000}
	for i := 0; i < 64; i++ {
		periods := append(append([]Duration(nil), stat[i%len(stat):]...), stat[:i%len(stat)]...)
		startChain(env, periods, &left)
	}
	b.ResetTimer()
	env.Run()
}

// BenchmarkDispatchBehindTimers is the open-loop regime (open_10k): 20
// chains of microsecond steps — the RPC stages of the operations in flight
// — in front of 10,000 timers with ~10 ms periods, the tenants' next
// arrivals, which are about one event in twenty.
func BenchmarkDispatchBehindTimers(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	left := b.N
	startChains(env, 10000, 10*time.Millisecond, time.Microsecond, &left)
	startChains(env, 20, time.Microsecond, 1, &left)
	b.ResetTimer()
	env.Run()
}

// BenchmarkDispatchDue measures events scheduled for the current instant:
// each iteration sleeps once, then re-arms an Event with 8 waiters and
// triggers it — nine dispatches, eight of them same-instant wake-ups.
func BenchmarkDispatchDue(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	t := env.ContextTask("trigger")
	ev := NewEvent(env)
	left, woken := b.N, 0
	wake := func() { woken++ }
	var fire func()
	fire = func() {
		if left <= 0 {
			return
		}
		left--
		ev.Reset()
		for i := 0; i < 8; i++ {
			ev.WaitFn(wake)
		}
		ev.Trigger(nil)
		t.Sleep(1, fire)
	}
	t.Start(fire)
	b.ResetTimer()
	env.Run()
	if woken != 8*b.N {
		b.Fatalf("woke %d waiters, want %d", woken, 8*b.N)
	}
}

// BenchmarkDeferredEvent measures Env.Defer beside a process: each
// iteration arms one deferred function — the primitive every stage of a
// fabric call frame advances by — and sleeps past it, so it is one plain
// dispatch plus one process wake-up.
func BenchmarkDeferredEvent(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Process("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			env.Defer(1, func() {})
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	env.Run()
}
