package sim

import (
	"runtime"
	"testing"
	"time"
)

// The tests below pin what running a process on a coroutine (iter.Pull)
// promises beyond the order contract: where a panic or Goexit in a body
// surfaces, that a drained Run leaves no goroutine behind, that a pooled
// process starts without allocating, and that successive Runs need not
// share a goroutine.

// TestProcessPanicSurfacesFromRun: a panic in a process body unwinds
// Env.Run on its caller's goroutine with its value intact, and the Proc
// whose coroutine died with it is never pooled — the same Env spawns, parks
// and finishes processes afterwards.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	env := NewEnv()
	env.Process("bystander", func(p *Proc) { p.Sleep(1) }) // pooled by the time of the panic
	type boom struct{ at Time }
	var dead *Proc
	env.Process("boom", func(p *Proc) {
		dead = p
		p.Sleep(2)
		panic(boom{p.Now()})
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		env.Run()
		t.Error("Run returned past a panicking process")
	}()
	if got != (boom{2}) {
		t.Fatalf("recovered %#v around Run, want %#v", got, boom{2})
	}
	if len(env.procFree) != 1 || env.procFree[0] == dead {
		t.Fatalf("pool after the panic holds %d Procs (the dead one among them: %v), want the bystander alone",
			len(env.procFree), len(env.procFree) > 0 && env.procFree[0] == dead)
	}
	finished := 0
	for i := 0; i < 3; i++ {
		env.Process("after", func(p *Proc) {
			if p == dead {
				t.Error("the Proc whose coroutine panicked was handed out again")
			}
			p.Sleep(1)
			finished++
		})
	}
	env.Run()
	if finished != 3 {
		t.Errorf("%d of 3 processes spawned after the panic finished", finished)
	}
}

// TestGoexitInProcessUnwindsRunsCaller: runtime.Goexit in a process body —
// which is what t.FailNow and t.Fatal are — ends the goroutine that called
// Run, deferred calls and all, instead of leaving the scheduler waiting for
// a process that will never yield.
func TestGoexitInProcessUnwindsRunsCaller(t *testing.T) {
	env := NewEnv()
	env.Process("quitter", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	returned := make(chan bool, 1)
	go func() {
		normally := false
		defer func() { returned <- normally }()
		env.Run()
		normally = true
	}()
	select {
	case normally := <-returned:
		if normally {
			t.Error("Run returned normally past a process that called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run's caller still blocked 10 s after a process called Goexit")
	}
}

// TestDrainedRunLeavesNoGoroutine: 1,000 process lives on 100 pooled
// coroutines, and once Run has drained the goroutine count is no higher
// than it was (an earlier test's goroutine may still have been exiting when
// this one counted, so it can be lower).
func TestDrainedRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	lives := 0
	env.Process("spawner", func(p *Proc) {
		for wave := 0; wave < 10; wave++ {
			for i := 0; i < 100; i++ {
				env.Process("life", func(q *Proc) {
					q.Sleep(1)
					lives++
				})
			}
			p.Sleep(2)
		}
	})
	env.Run()
	if lives != 1000 || len(env.procFree) != 101 {
		t.Fatalf("%d lives on %d pooled Procs, want 1000 on 101: the pool was not exercised", lives, len(env.procFree))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after a drained Run, %d before it", after, before)
	}
}

// TestPooledSpawnAllocFree: in steady state, spawning a process that sleeps
// once and finishes — a blocking RPC handler's shape — allocates nothing:
// the pooled Proc brings its coroutine and its frontings with it.
func TestPooledSpawnAllocFree(t *testing.T) {
	env := NewEnv()
	child := func(q *Proc) { q.Sleep(1) }
	var avg float64
	env.Process("parent", func(p *Proc) {
		avg = testing.AllocsPerRun(100, func() {
			env.Process("child", child)
			p.Sleep(2)
		})
	})
	env.Run()
	if avg != 0 {
		t.Errorf("spawn + sleep + finish of a pooled process allocated %.2f times, want 0", avg)
	}
}

// TestSuccessiveRunsOnDifferentGoroutines: a set-up Run and then a timed
// Run on one Env, called from different goroutines (CreateFiles then
// StatBench under a -parallel worker), each spawn, park and finish
// processes — the second on the Procs the first pooled, whose coroutines
// the first Run's drain stopped.
func TestSuccessiveRunsOnDifferentGoroutines(t *testing.T) {
	env := NewEnv()
	finished := 0
	phase := func() {
		for i := 0; i < 4; i++ {
			env.Process("worker", func(p *Proc) {
				p.Sleep(1)
				env.Process("helper", func(q *Proc) {
					q.Sleep(1)
					finished++
				})
				p.Sleep(2)
				finished++
			})
		}
		env.Run()
	}
	phase()
	pooled := append([]*Proc(nil), env.procFree...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		phase()
	}()
	<-done
	if finished != 16 {
		t.Errorf("%d process lives finished over two Runs, want 16", finished)
	}
	if len(env.procFree) != len(pooled) {
		t.Errorf("the second Run left %d pooled Procs, the first %d: it did not reuse them", len(env.procFree), len(pooled))
	}
	for _, p := range env.procFree {
		if p.next != nil {
			t.Errorf("%v keeps a coroutine after Run drained", p)
		}
	}
}
