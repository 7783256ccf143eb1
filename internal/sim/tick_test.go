package sim

import (
	"testing"
	"time"
)

func TestTickFiresAtEveryBoundary(t *testing.T) {
	env := NewEnv()
	var fired []Time
	env.SetTick(10*time.Microsecond, func(at Time) { fired = append(fired, at) })
	env.Process("sleeper", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		p.Sleep(18 * time.Microsecond) // clock jumps 7µs → 25µs, crossing two boundaries
		p.Sleep(10 * time.Microsecond) // 35µs
	})
	env.Run()
	want := []Time{
		Time(10 * time.Microsecond),
		Time(20 * time.Microsecond),
		Time(30 * time.Microsecond),
	}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, fired[i], want[i])
		}
	}
}

// The observer is stamped with the boundary time even when the clock jumps
// past several boundaries at once, and it sees state as of the boundary: no
// event between the previous dispatch and the boundary has run yet.
func TestTickSeesStateBeforeCoincidingEvent(t *testing.T) {
	env := NewEnv()
	x := 0
	seen := -1
	env.SetTick(10*time.Microsecond, func(at Time) {
		if at == Time(10*time.Microsecond) {
			seen = x
		}
	})
	env.Process("p", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		x = 1
		p.Sleep(5 * time.Microsecond)
	})
	env.Run()
	if seen != 0 {
		t.Errorf("tick at 10µs saw x = %d; must observe state before the coinciding event runs", seen)
	}
}

func TestTickDoesNotPerturbSimulation(t *testing.T) {
	run := func(tick bool) (Time, uint64, []string) {
		env := NewEnv()
		if tick {
			env.SetTick(3*time.Microsecond, func(Time) {})
		}
		r := NewResource(env, 1)
		var order []string
		for i, name := range []string{"a", "b", "c"} {
			d := time.Duration(i+1) * 5 * time.Microsecond
			n := name
			env.Process(n, func(p *Proc) {
				acquire(p, r, 1)
				p.Sleep(d)
				r.Release(1)
				order = append(order, n)
			})
		}
		end := env.Run()
		return end, env.EventsProcessed, order
	}
	endA, evA, ordA := run(false)
	endB, evB, ordB := run(true)
	if endA != endB {
		t.Errorf("final time %v with tick vs %v without", endB, endA)
	}
	if evA != evB {
		t.Errorf("EventsProcessed %d with tick vs %d without — the hook must not consume events", evB, evA)
	}
	for i := range ordA {
		if ordA[i] != ordB[i] {
			t.Fatalf("completion order changed: %v vs %v", ordA, ordB)
		}
	}
}

func TestTickRemoveAndBadInterval(t *testing.T) {
	env := NewEnv()
	count := 0
	env.SetTick(time.Microsecond, func(Time) { count++ })
	env.SetTick(0, nil) // removal
	env.Process("p", func(p *Proc) { p.Sleep(10 * time.Microsecond) })
	env.Run()
	if count != 0 {
		t.Errorf("removed observer fired %d times", count)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetTick with non-positive interval did not panic")
		}
	}()
	env.SetTick(0, func(Time) {})
}
