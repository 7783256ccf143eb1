package sim

import (
	"math"
	"testing"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Process("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		woke = p.Now()
	})
	end := env.Run()
	if woke != Time(42*time.Microsecond) {
		t.Errorf("woke at %v, want 42µs", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestZeroSleepYields(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Process("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Process("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Process("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			env.Process("p", func(p *Proc) {
				p.Sleep(Duration(i%7) * time.Microsecond)
				order = append(order, i)
				p.Sleep(Duration((i*31)%11) * time.Microsecond)
				order = append(order, 100+i)
			})
		}
		env.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	woke := 0
	for i := 0; i < 5; i++ {
		env.Process("waiter", func(p *Proc) {
			waitEvent(p, ev)
			if got := ev.Value(); got != "go" {
				t.Errorf("after Wait the value is %v, want go", got)
			}
			woke++
		})
	}
	env.Process("trigger", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger("go")
	})
	env.Run()
	if woke != 5 {
		t.Errorf("woke = %d, want 5", woke)
	}
	if !ev.Triggered() {
		t.Error("event not marked triggered")
	}
}

func TestEventWaitAfterTriggerReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	env.Process("p", func(p *Proc) {
		ev.Trigger(7)
		before := p.Now()
		waitEvent(p, ev)
		if got := ev.Value(); got != 7 {
			t.Errorf("got %v, want 7", got)
		}
		if p.Now() != before {
			t.Error("Wait on triggered event advanced time")
		}
	})
	env.Run()
}

func TestEventSecondTriggerIgnored(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	env.Process("p", func(p *Proc) {
		ev.Trigger(1)
		ev.Trigger(2)
		if ev.Value() != 1 {
			t.Errorf("value = %v, want 1 (first trigger wins)", ev.Value())
		}
	})
	env.Run()
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Process("user", func(p *Proc) {
			use(p, res, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwoRunsPairsConcurrently(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		env.Process("user", func(p *Proc) {
			use(p, res, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	if finish[1] != Time(10*time.Microsecond) || finish[3] != Time(20*time.Microsecond) {
		t.Errorf("finish = %v, want pairs at 10µs and 20µs", finish)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Process("user", func(p *Proc) {
			p.Sleep(Duration(i) * time.Microsecond) // arrive in index order
			acquire(p, res, 1)
			order = append(order, i)
			p.Sleep(100 * time.Microsecond)
			res.Release(1)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	env.Process("u", func(p *Proc) {
		use(p, res, 30*time.Microsecond)
		p.Sleep(70 * time.Microsecond)
	})
	env.Run()
	if u := res.Utilization(); u < 0.29 || u > 0.31 {
		t.Errorf("utilization = %f, want ~0.30", u)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	env := NewEnv()
	bar := NewBarrier(env, 3)
	var released []Time
	for i := 0; i < 3; i++ {
		i := i
		env.Process("p", func(p *Proc) {
			p.Sleep(Duration(i*10) * time.Microsecond)
			bar.Wait(p)
			released = append(released, p.Now())
			// Second generation.
			p.Sleep(Duration((3-i)*10) * time.Microsecond)
			bar.Wait(p)
			released = append(released, p.Now())
		})
	}
	env.Run()
	if len(released) != 6 {
		t.Fatalf("released %d times, want 6", len(released))
	}
	for i := 1; i < 3; i++ {
		if released[i] != released[0] {
			t.Errorf("first generation not simultaneous: %v", released[:3])
		}
	}
	for i := 4; i < 6; i++ {
		if released[i] != released[3] {
			t.Errorf("second generation not simultaneous: %v", released[3:])
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	total := 0
	env.Process("root", func(p *Proc) {
		kids := make([]*Event, 4)
		for i := range kids {
			done := NewEvent(env)
			kids[i] = done
			p.Env().Process("kid", func(q *Proc) {
				q.Sleep(time.Microsecond)
				total++
				done.Trigger(nil)
			})
		}
		for _, done := range kids {
			waitEvent(p, done)
		}
		total *= 10
	})
	env.Run()
	if total != 40 {
		t.Errorf("total = %d, want 40", total)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	env := NewEnv()
	ev := NewEvent(env)
	env.Process("stuck", func(p *Proc) {
		waitEvent(p, ev) // nobody will ever trigger it
	})
	env.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	env.Process("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	env.Run()
}

// A delay that overflows virtual time would wrap to an instant before now,
// sort first, and set the clock backwards; schedule refuses it.
func TestOverflowingDelayPanics(t *testing.T) {
	for name, arm := range map[string]func(env *Env, tk *Task){
		"Defer":      func(env *Env, _ *Task) { env.Defer(math.MaxInt64, func() {}) },
		"Task.Sleep": func(_ *Env, tk *Task) { tk.Sleep(math.MaxInt64, func() {}) },
	} {
		env := NewEnv()
		tk := env.ContextTask("t")
		panicked := false
		env.Defer(1, func() {
			defer func() { panicked = recover() != nil }()
			arm(env, tk)
		})
		if end := env.Run(); !panicked || end != 1 {
			t.Errorf("%s(MaxInt64) at 1ns: panicked %v, run ended at %v; want a panic and nothing scheduled", name, panicked, end)
		}
	}
}

func TestManyProcessesThroughput(t *testing.T) {
	env := NewEnv()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		env.Process("worker", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Microsecond)
			}
			done++
		})
	}
	env.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
}

func TestEventsProcessedCounter(t *testing.T) {
	env := NewEnv()
	env.Process("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	env.Run()
	// 1 start event + 5 sleep wake-ups.
	if env.EventsProcessed != 6 {
		t.Errorf("EventsProcessed = %d, want 6", env.EventsProcessed)
	}
}
