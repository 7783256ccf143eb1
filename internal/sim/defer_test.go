package sim

import (
	"testing"
	"time"
)

// TestDeferRunsAtScheduledTime verifies a deferred function fires at its
// instant, in scheduler context, and is counted like any other event.
func TestDeferRunsAtScheduledTime(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Defer(5*time.Microsecond, func() { at = env.Now() })
	env.Run()
	if want := Time(5 * time.Microsecond); at != want {
		t.Errorf("deferred fn ran at %v, want %v", at, want)
	}
	if env.EventsProcessed != 1 {
		t.Errorf("EventsProcessed = %d, want 1", env.EventsProcessed)
	}
}

// TestDeferOrderingWithProcesses verifies deferred functions interleave
// with process wake-ups in strict (at, seq) order.
func TestDeferOrderingWithProcesses(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Process("p", func(p *Proc) {
		p.Sleep(2)
		order = append(order, "proc@2")
	})
	env.Defer(1, func() { order = append(order, "defer@1") })
	env.Defer(3, func() { order = append(order, "defer@3") })
	env.Run()
	want := []string{"defer@1", "proc@2", "defer@3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, order[i], want[i])
		}
	}
}

// TestDeferChained verifies a deferred function may itself defer more work.
func TestDeferChained(t *testing.T) {
	env := NewEnv()
	var depth int
	var chain func()
	chain = func() {
		depth++
		if depth < 3 {
			env.Defer(1, chain)
		}
	}
	env.Defer(1, chain)
	end := env.Run()
	if depth != 3 {
		t.Errorf("chained defers ran %d times, want 3", depth)
	}
	if end != 3 {
		t.Errorf("run ended at %v, want 3ns", end)
	}
}
