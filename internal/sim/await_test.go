package sim

import (
	"strings"
	"testing"
	"time"
)

// useChain is one operation in continuation style: three contended
// resource uses and a sleep, the shape of an RPC leg.
func useChain(t *Task, r *Resource, k func()) {
	r.UseT(t, 3*time.Microsecond, func() {
		t.Sleep(5*time.Microsecond, func() {
			r.UseT(t, 2*time.Microsecond, k)
		})
	})
}

// TestAwaitReplaysStartTask is the adapter's contract: an operation run
// under StartTask and the same operation under Process+Await dispatch the
// same number of events and finish at the same (time, seq).
func TestAwaitReplaysStartTask(t *testing.T) {
	type outcome struct {
		events uint64
		now    Time
		seq    uint64
		ends   [3]Time
	}
	run := func(await bool) outcome {
		env := NewEnv()
		r := NewResource(env, 1) // contended: grants go through the queue
		var out outcome
		for i := 0; i < 3; i++ {
			i := i
			body := func(tk *Task) {
				useChain(tk, r, func() {
					useChain(tk, r, func() {
						out.ends[i] = tk.Now()
						tk.End()
					})
				})
			}
			if await {
				env.Process("client", func(p *Proc) { p.Await(body) })
			} else {
				env.StartTask("client", body)
			}
		}
		out.now = env.Run()
		out.events, out.seq = env.EventsProcessed, env.seq
		return out
	}
	task, proc := run(false), run(true)
	if task != proc {
		t.Fatalf("StartTask %+v, Process+Await %+v", task, proc)
	}
	if task.events == 0 || task.now == 0 {
		t.Fatalf("vacuous run: %+v", task)
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
// awaits a task-style layer (inner Await). Both Block entry paths are
// covered: from the Await body (process running) and from a continuation
// in scheduler context (process parked).
func TestAwaitBlockAwaitUnwindsLIFO(t *testing.T) {
	env := NewEnv()
	var log []string
	note := func(s string) { log = append(log, s) }
	blocking := func(p *Proc) { // the blocking layer: sleeps, then awaits
		p.Sleep(time.Microsecond)
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
	want := "outer-start inner-start inner-end inner-returned k1 " +
		"inner-start inner-end inner-returned k2 outer-returned"
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
// Await (including one abandoned mid-Block state) starts its next life with
// no trace of it.
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
			tk.Sleep(time.Microsecond, func() {
				done = true
				tk.End()
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
