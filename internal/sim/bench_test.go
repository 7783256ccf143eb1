package sim

import "testing"

// BenchmarkDispatch measures the bare event loop: one process sleeping
// repeatedly, so every iteration is a schedule + heap pop + park/wake
// handshake. This is the price of a real process wake-up.
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

// BenchmarkTaskDispatch is BenchmarkDispatch on the continuation engine:
// one task sleeping repeatedly, so every iteration is a schedule + heap
// pop + closure invocation with no goroutine handshake. Comparing the two
// gives the per-client-operation saving of the task engine.
func BenchmarkTaskDispatch(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.StartTask("sleeper", func(t *Task) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				t.End()
				return
			}
			t.Sleep(1, func() { step(i + 1) })
		}
		step(0)
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkDeferredEvent measures the deferred-function fast path, the
// primitive fabric.Call arms once per deadline-carrying RPC: each iteration
// runs one Defer and sleeps past it.
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
