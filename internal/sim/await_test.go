package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// spelling is the kernel's waiting primitives in one of the forms an
// activity can use them: continuation style on a task, or blocking on a
// process with the continuation run when the call returns. A scenario is
// written once against it.
type spelling struct {
	sleep   func(d Duration, k func())
	wait    func(ev *Event, k func())
	acquire func(r *Resource, n int, k func())
	use     func(r *Resource, d Duration, k func())
	arrive  func(b *Barrier, k func())
	end     func()
}

func taskSpelling(tk *Task) spelling {
	return spelling{
		sleep:   tk.Sleep,
		wait:    func(ev *Event, k func()) { ev.WaitFn(k) },
		acquire: func(r *Resource, n int, k func()) { r.AcquireT(tk, n, k) },
		use:     func(r *Resource, d Duration, k func()) { r.UseT(tk, d, k) },
		arrive:  func(b *Barrier, k func()) { b.WaitT(tk, k) },
		end:     tk.End,
	}
}

func procSpelling(p *Proc) spelling {
	return spelling{
		sleep:   func(d Duration, k func()) { p.Sleep(d); k() },
		wait:    func(ev *Event, k func()) { ev.Wait(p); k() },
		acquire: func(r *Resource, n int, k func()) { r.Acquire(p, n); k() },
		use:     func(r *Resource, d Duration, k func()) { r.Use(p, d); k() },
		arrive:  func(b *Barrier, k func()) { b.Wait(p); k() },
		end:     func() {},
	}
}

// TestAwaitReplaysStartTask is the adapter's contract, for operations of
// several continuations under one Await and for each kernel primitive's
// blocking form: six activities run as tasks (StartTask), as awaited tasks
// (Process+Await), as processes using the blocking primitives, and as a
// mix of the three sharing one queue are admitted in the same order at the
// same (time, seq), and dispatch the same number of events.
func TestAwaitReplaysStartTask(t *testing.T) {
	const us = time.Microsecond
	scenarios := []struct {
		name string
		// setup builds the shared primitive and returns activity i's body,
		// which calls note each time it is admitted.
		setup func(env *Env) func(i int, a spelling, note func())
		order []int // who is admitted, in order
	}{
		{"rpc leg", func(env *Env) func(int, spelling, func()) {
			r := NewResource(env, 1) // contended: grants go through the queue
			return func(i int, a spelling, note func()) {
				a.use(r, 3*us, func() {
					a.sleep(5*us, func() {
						a.use(r, 2*us, func() { note(); a.end() })
					})
				})
			}
		}, []int{0, 1, 2, 3, 4, 5}},
		{"event", func(env *Env) func(int, spelling, func()) {
			ev := NewEvent(env)
			env.Defer(10*us, func() { ev.Trigger(nil) })
			return func(i int, a spelling, note func()) { // 0–3 park, 4 and 5 find it triggered
				a.sleep(Duration(i)*3*us, func() {
					a.wait(ev, func() { note(); a.end() })
				})
			}
		}, []int{0, 1, 2, 3, 4, 5}},
		{"resource", func(env *Env) func(int, spelling, func()) {
			r := NewResource(env, 2)
			return func(i int, a spelling, note func()) {
				n := 1 + i%2
				a.sleep(Duration(i)*us, func() {
					a.acquire(r, n, func() {
						note()
						a.sleep(5*us, func() { r.Release(n); a.end() })
					})
				})
			}
		}, []int{0, 1, 2, 3, 4, 5}},
		{"barrier", func(env *Env) func(int, spelling, func()) {
			b := NewBarrier(env, 6)
			return func(i int, a spelling, note func()) { // two generations, arriving 0…5 then 5…0
				a.sleep(Duration(i)*us, func() {
					a.arrive(b, func() {
						note()
						a.sleep(Duration(6-i)*us, func() {
							a.arrive(b, func() { note(); a.end() })
						})
					})
				})
			}
		}, []int{5, 0, 1, 2, 3, 4, 0, 5, 4, 3, 2, 1}}, // the last arriver continues inline, the rest in arrival order
	}
	type admission struct {
		who int
		now Time
		seq uint64
	}
	type outcome struct {
		trace  []admission
		events uint64
		now    Time
		seq    uint64
	}
	const asTask, asAwaited, asProc, mixed = 0, 1, 2, 3
	for _, sc := range scenarios {
		run := func(mode int) outcome {
			env := NewEnv()
			var out outcome
			body := sc.setup(env)
			for i := 0; i < 6; i++ {
				i := i
				note := func() { out.trace = append(out.trace, admission{i, env.now, env.seq}) }
				form := mode
				if mode == mixed {
					form = i % 3
				}
				switch form {
				case asTask:
					env.StartTask("a", func(tk *Task) { body(i, taskSpelling(tk), note) })
				case asAwaited:
					env.Process("a", func(p *Proc) {
						p.Await(func(tk *Task) { body(i, taskSpelling(tk), note) })
					})
				case asProc:
					env.Process("a", func(p *Proc) { body(i, procSpelling(p), note) })
				}
			}
			out.now = env.Run()
			out.events, out.seq = env.EventsProcessed, env.seq
			return out
		}
		want := run(asTask)
		var order []int
		for _, a := range want.trace {
			order = append(order, a.who)
		}
		if !reflect.DeepEqual(order, sc.order) {
			t.Errorf("%s: admitted in order %v, want %v", sc.name, order, sc.order)
		}
		for mode, name := range map[int]string{asAwaited: "Process+Await", asProc: "blocking primitives", mixed: "mixed queue"} {
			if got := run(mode); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s ran %+v, StartTask ran %+v", sc.name, name, got, want)
			}
		}
	}
}

// TestBlockingPrimitivesAllocFree: in steady state — event heap, waiter
// queues, process pool and each process's frontings warm — the blocking
// form of every kernel primitive allocates nothing, on its inline path and
// on its parking path, directly under the process and nested in an Await.
func TestBlockingPrimitivesAllocFree(t *testing.T) {
	env := NewEnv()
	free, busy := NewResource(env, 2), NewResource(env, 1)
	bar := NewBarrier(env, 2)
	fired, pending := NewEvent(env), NewEvent(env)
	fired.Trigger(nil)
	trigger := func() { pending.Trigger(nil) }
	nested := func(q *Proc) { q.Sleep(1) }
	var queued int
	body := func(p *Proc) { // run by two processes at once
		p.Sleep(1)
		p.Await(func(tk *Task) { tk.Block(nested, tk.front.fnEnd) })
		before := env.parked
		fired.Wait(p) // triggered: inline
		free.Acquire(p, 1)
		free.Use(p, 0) // second unit: granted inline, then a zero sleep
		free.Release(1)
		if env.parked != before {
			t.Error("inline paths parked")
		}
		bar.Wait(p) // first arriver parks, second releases it
		env.Defer(1, trigger)
		pending.Wait(p)    // both park
		busy.Acquire(p, 1) // one holds, the other queues
		p.Sleep(1)
		queued += busy.QueueLen()
		busy.Release(1)
		bar.Wait(p)
		pending.Reset()
		busy.Use(p, 1) // one holds, the other queues
	}
	pass := func(body func(*Proc)) func() {
		return func() {
			env.Process("a", body)
			env.Process("b", body)
			env.Run()
		}
	}
	pass(body)()
	if queued != 1 {
		t.Fatalf("the holder released with %d acquirers queued, want 1: the contended path did not run", queued)
	}
	// Each pass is a Run of its own, and the last one's drain stopped the
	// pooled coroutines: starting the two processes costs two new ones
	// (iter.Pull's allocations); anything above that would be the primitives'.
	spawn := testing.AllocsPerRun(50, pass(func(*Proc) {}))
	if avg := testing.AllocsPerRun(50, pass(body)); avg != spawn {
		t.Errorf("one pass over every blocking primitive by two processes allocated %.2f times, want the %.2f of starting them", avg, spawn)
	}
}

// TestAwaitInlineEndNeverParks: a body that ends its task before returning
// (a fast path) completes the Await without a park or an event.
func TestAwaitInlineEndNeverParks(t *testing.T) {
	env := NewEnv()
	ran := false
	env.Process("p", func(p *Proc) {
		seq, events := env.seq, env.EventsProcessed
		p.Await(func(tk *Task) {
			if env.parked != 0 {
				t.Error("process parked while its Await body runs")
			}
			tk.End()
		})
		if env.seq != seq || env.EventsProcessed != events {
			t.Errorf("inline Await scheduled or dispatched: seq %d→%d, events %d→%d",
				seq, env.seq, events, env.EventsProcessed)
		}
		ran = true
	})
	env.Run()
	if !ran {
		t.Fatal("process did not finish")
	}
	if env.EventsProcessed != 1 {
		t.Fatalf("events = %d, want only the process start", env.EventsProcessed)
	}
}

// TestAwaitSharesContextSlot: the fronting task reads and writes the
// process's own slot, so spans and deadlines set on either side are seen by
// both — across the scheduler-context continuations too.
func TestAwaitSharesContextSlot(t *testing.T) {
	env := NewEnv()
	env.Process("p", func(p *Proc) {
		p.SetCtx("from-proc")
		p.Await(func(tk *Task) {
			if tk.Ctx() != "from-proc" {
				t.Errorf("task sees ctx %v", tk.Ctx())
			}
			tk.Sleep(time.Microsecond, func() {
				tk.SetCtx("from-task")
				tk.End()
			})
		})
		if p.Ctx() != "from-task" {
			t.Errorf("process sees ctx %v", p.Ctx())
		}
	})
	env.Run()
}

// TestAwaitBlockAwaitUnwindsLIFO is the CMCache-over-Lustre shape: a
// task-style layer (outer Await) calls a blocking layer (Block) that itself
// sleeps (a kernel primitive, so a nested Await of its own) and then awaits
// a task-style layer (inner Await). Both Block entry paths are covered:
// from the Await body (process running) and from a continuation in
// scheduler context (process parked).
func TestAwaitBlockAwaitUnwindsLIFO(t *testing.T) {
	env := NewEnv()
	var log []string
	note := func(s string) { log = append(log, s) }
	blocking := func(p *Proc) { // the blocking layer: sleeps, then awaits
		p.Sleep(time.Microsecond)
		note("slept")
		p.Await(func(in *Task) {
			note("inner-start")
			in.Sleep(time.Microsecond, func() {
				note("inner-end")
				in.End()
			})
		})
		note("inner-returned")
	}
	env.Process("p", func(p *Proc) {
		p.Await(func(out *Task) {
			note("outer-start")
			out.Block(blocking, func() { // inline entry
				note("k1")
				out.Sleep(time.Microsecond, func() {
					out.Block(blocking, func() { // entry by wake
						note("k2")
						out.End()
					})
				})
			})
		})
		note("outer-returned")
	})
	env.Run()
	want := "outer-start slept inner-start inner-end inner-returned k1 " +
		"slept inner-start inner-end inner-returned k2 outer-returned"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
	if env.Now() != Time(5*time.Microsecond) {
		t.Fatalf("finished at %v, want 5µs (four sleeps in the blocking layer, one outside)", env.Now())
	}
}

// TestBlockSpendsNoSequenceNumbers: the same blocking work reached directly
// and reached through Await+Block from scheduler context consumes the same
// sequence numbers.
func TestBlockSpendsNoSequenceNumbers(t *testing.T) {
	run := func(viaBlock bool) (uint64, uint64, Time) {
		env := NewEnv()
		work := func(p *Proc) { p.Sleep(2 * time.Microsecond) }
		env.Process("p", func(p *Proc) {
			p.Sleep(time.Microsecond)
			if !viaBlock {
				work(p)
				return
			}
			p.Await(func(tk *Task) {
				tk.Block(work, tk.End)
			})
		})
		env.Run()
		return env.seq, env.EventsProcessed, env.Now()
	}
	s1, e1, n1 := run(false)
	s2, e2, n2 := run(true)
	if s1 != s2 || e1 != e2 || n1 != n2 {
		t.Fatalf("direct (seq %d, events %d, %v) vs Await+Block (seq %d, events %d, %v)", s1, e1, n1, s2, e2, n2)
	}
}

func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	fn()
	return ""
}

// TestAwaitNeverEndedIsDeadlock: an Await whose task is dropped leaves the
// process parked, which Run's deadlock check reports.
func TestAwaitNeverEndedIsDeadlock(t *testing.T) {
	env := NewEnv()
	env.Process("stuck", func(p *Proc) {
		p.Await(func(tk *Task) {
			tk.Sleep(time.Microsecond, func() {}) // continuation chain dropped
		})
	})
	msg := panicMessage(func() { env.Run() })
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "1 process(es) parked") {
		t.Fatalf("Run panic = %q, want the parked-process deadlock report", msg)
	}
}

// TestBlockPanics: Block on a task that fronts no process, and on a
// process already inside a Block, are bugs reported by name.
func TestBlockPanics(t *testing.T) {
	env := NewEnv()
	var plain string
	env.StartTask("plain", func(tk *Task) {
		plain = panicMessage(func() { tk.Block(func(*Proc) {}, func() {}) })
		tk.End()
	})
	ctx := panicMessage(func() { env.ContextTask("frame").Block(func(*Proc) {}, func() {}) })

	var busy, endBusy string
	env.Process("worker", func(p *Proc) {
		p.Await(func(tk *Task) {
			// A second operation on the same task arrives while the
			// process is parked inside the first one's blocking call.
			tk.Sleep(time.Microsecond, func() {
				busy = panicMessage(func() { tk.Block(func(*Proc) {}, func() {}) })
				endBusy = panicMessage(tk.End)
			})
			tk.Block(func(q *Proc) { q.Sleep(2 * time.Microsecond) }, tk.End)
		})
	})
	env.Run()
	for _, c := range []struct{ name, msg, want string }{
		{"plain task", plain, "task 1 (plain) fronts no process"},
		{"context task", ctx, "(frame) fronts no process"},
		{"busy process", busy, "(worker) is busy"},
		{"end while busy", endBusy, "(worker) is busy in Block"},
	} {
		if !strings.Contains(c.msg, c.want) {
			t.Errorf("%s: panic %q, want it to contain %q", c.name, c.msg, c.want)
		}
	}
}

// TestPooledProcCleanAfterAwait: a Proc recycled after a life that used
// Await starts its next life with no trace of it but its frontings, which
// the next life's Awaits reuse depth for depth.
func TestPooledProcCleanAfterAwait(t *testing.T) {
	env := NewEnv()
	var first *Proc
	env.Process("first", func(p *Proc) {
		first = p
		p.SetCtx("stale")
		p.Await(func(tk *Task) {
			tk.Block(func(q *Proc) { q.Sleep(time.Microsecond) }, func() {
				tk.Sleep(time.Microsecond, tk.End)
			})
		})
		p.Sleep(time.Microsecond)
	})
	env.Run()
	reused := false
	env.Process("second", func(p *Proc) {
		reused = p == first
		if p.Ctx() != nil {
			t.Errorf("recycled process starts with ctx %v", p.Ctx())
		}
		done := false
		p.Await(func(tk *Task) {
			if tk.Ctx() != nil {
				t.Errorf("fresh Await sees ctx %v", tk.Ctx())
			}
			tk.Block(func(q *Proc) {
				q.Await(func(in *Task) {
					if len(p.fronts) != 2 || tk.front != p.fronts[0] || in.front != p.fronts[1] {
						t.Errorf("Await and nested Await of a recycled process run on %p and %p, want its pooled %v",
							tk.front, in.front, p.fronts)
					}
					in.End()
				})
			}, func() {
				tk.Sleep(time.Microsecond, func() {
					done = true
					tk.End()
				})
			})
		})
		if !done {
			t.Error("Await returned before its task ended")
		}
	})
	env.Run()
	if !reused {
		t.Fatal("second process did not reuse the pooled Proc; the test checks nothing")
	}
}
