package fabric

import (
	"testing"
	"time"

	"imca/internal/sim"
)

// newTaskPair builds an env with two nodes and a task-native echo service,
// the all-frames RPC configuration the zero-alloc contract covers.
func newTaskPair(t *testing.T) (*sim.Env, *Node, *Node) {
	t.Helper()
	env := sim.NewEnv()
	net := NewNetwork(env, RDMA)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	b.HandleT("echo", func(_ *sim.Task, _ *Node, req Msg, respond func(Msg)) { respond(req) })
	return env, a, b
}

// TestCallTSteadyStateAllocFree pins the pooled frame's zero-alloc
// contract: once the frame pool, event heap, and waiter arrays are warm, a
// CallT round trip against a task-native handler allocates nothing, and
// neither does the dispatch loop that carries it.
func TestCallTSteadyStateAllocFree(t *testing.T) {
	env, a, b := newTaskPair(t)
	bind := a.Bind(b, "echo")
	ct := env.ContextTask("bench")
	const callsPerRun = 64
	calls := 0
	k := func(m Msg, err error) {
		if err != nil {
			t.Fatalf("echo call failed: %v", err)
		}
		calls++
	}
	run := func() {
		for i := 0; i < callsPerRun; i++ {
			bind.CallT(ct, Bytes(0), k)
		}
		env.Run()
	}
	run() // grow the frame pool, event heap, and waiter deques once
	calls = 0
	const runs = 50
	if avg := testing.AllocsPerRun(runs, run); avg != 0 {
		t.Errorf("batch of %d pooled calls allocated %.2f times, want 0", callsPerRun, avg)
	}
	// AllocsPerRun invokes run once to warm up, then runs times measured.
	if want := (runs + 1) * callsPerRun; calls != want {
		t.Errorf("completed %d calls, want %d", calls, want)
	}
}

// TestCallTNameResolutionAllocFree is the unbound variant: resolving the
// service by name on every call must stay allocation-free too — the
// service entry and its span name were interned at registration,
// so the per-call lookup is one map read, no string building.
func TestCallTNameResolutionAllocFree(t *testing.T) {
	env, a, b := newTaskPair(t)
	ct := env.ContextTask("bench")
	const callsPerRun = 64
	k := func(m Msg, err error) {
		if err != nil {
			t.Fatalf("echo call failed: %v", err)
		}
	}
	run := func() {
		for i := 0; i < callsPerRun; i++ {
			a.CallT(ct, b, "echo", Bytes(0), k)
		}
		env.Run()
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg > 1 {
		t.Errorf("batch of %d name-resolved calls allocated %.2f times (want <= 1)", callsPerRun, avg)
	}
}

// TestFramePoisonLifecycle runs the pool's hardest lifecycle — concurrent
// calls, a call abandoned by a cut link whose response arrives (over the
// healed link) after the caller gave up, then reuse of the recycled frames —
// with poison mode on, so any premature recycle or use-after-release panics
// instead of corrupting a later call.
func TestFramePoisonLifecycle(t *testing.T) {
	sim.SetPoison(true)
	defer sim.SetPoison(false)

	env, a, b := newTaskPair(t)
	b.HandleT("slow", func(srv *sim.Task, _ *Node, req Msg, respond func(Msg)) {
		srv.Sleep(time.Millisecond, func() { respond(req) })
	})
	bind := a.Bind(b, "echo")
	ct := env.ContextTask("client")
	ok := 0
	for i := 0; i < 8; i++ {
		bind.CallT(ct, Bytes(64), func(m Msg, err error) {
			if err != nil {
				t.Errorf("echo call failed: %v", err)
			}
			ok++
		})
	}

	// An abandoned call: the handler answers at +1ms, the link is cut at
	// +200µs and healed at +500µs. The caller must see ErrUnreachable at the
	// cut while the server reference keeps the frame alive until the
	// orphaned response finishes its wire legs.
	a.net.EnableFaults()
	env.Defer(200*time.Microsecond, func() { a.net.CutLink("a", "b") })
	env.Defer(500*time.Microsecond, func() { a.net.HealLink("a", "b") })
	var cutErr error
	var cutAt sim.Time
	a.CallT(env.ContextTask("cut-client"), b, "slow", Bytes(64), func(m Msg, err error) {
		cutErr, cutAt = err, env.Now()
	})

	env.Run()
	if ok != 8 {
		t.Errorf("%d of 8 concurrent calls completed", ok)
	}
	if cutErr != ErrUnreachable || cutAt != sim.Time(0).Add(200*time.Microsecond) {
		t.Errorf("abandoned call returned %v at %v, want ErrUnreachable at the cut", cutErr, cutAt)
	}
	if a.RxMsgs != 9 {
		t.Errorf("caller received %d messages, want 9: the orphaned response crosses the healed link", a.RxMsgs)
	}
	if len(a.frames) == 0 {
		t.Fatal("no frames returned to the pool")
	}
	for _, f := range a.frames {
		if f.refs != framePoisonRefs {
			t.Errorf("pooled frame has refs=%d, want poison stamp", f.refs)
		}
	}

	// Recycled (poison-stamped) frames must come back clean for reuse.
	done := false
	bind.CallT(ct, Bytes(0), func(m Msg, err error) {
		if err != nil {
			t.Errorf("reuse call failed: %v", err)
		}
		done = true
	})
	env.Run()
	if !done {
		t.Error("call on a recycled frame never completed")
	}
}

// TestFramePoisonCatchesMisuse verifies poison mode's two tripwires: a
// frame step invoked after release, and a still-live frame pushed onto the
// free list.
func TestFramePoisonCatchesMisuse(t *testing.T) {
	sim.SetPoison(true)
	defer sim.SetPoison(false)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic under poison mode", name)
			}
		}()
		fn()
	}

	env, a, b := newTaskPair(t)
	ct := env.ContextTask("client")
	a.Bind(b, "echo").CallT(ct, Bytes(0), func(Msg, error) {})
	env.Run()

	released := a.frames[len(a.frames)-1]
	mustPanic("respond on a released frame", func() { released.respond(Bytes(0)) })

	live := newCallFrame(a)
	live.refs = 1
	a.frames = append(a.frames, live)
	mustPanic("getFrame popping a live frame", func() { a.getFrame() })
	a.frames = a.frames[:0]
}

// pooledMsg is a message its service recycles.
type pooledMsg struct{ recycled int }

func (m *pooledMsg) WireSize() int64 { return 8 }
func (m *pooledMsg) Recycle()        { m.recycled++ }

// TestCallTLendsPooledResponse pins the borrow rule at the fabric: a
// Recyclable response is lent to CallT's continuation, live, and goes back
// to its pool exactly once when the continuation returns.
func TestCallTLendsPooledResponse(t *testing.T) {
	env, a, b := newTaskPair(t)
	resp := &pooledMsg{}
	b.HandleT("pooled", func(_ *sim.Task, _ *Node, _ Msg, respond func(Msg)) { respond(resp) })
	for call := 0; call < 2; call++ {
		lent, before := false, resp.recycled
		env.StartTask("task", func(tk *sim.Task) {
			a.CallT(tk, b, "pooled", Bytes(0), func(m Msg, err error) {
				lent = m == Msg(resp) && err == nil && resp.recycled == before
				tk.End()
			})
		})
		env.Run()
		if !lent {
			t.Fatalf("call %d: CallT did not lend the live response to its continuation", call)
		}
	}
	if resp.recycled != 2 {
		t.Fatalf("response recycled %d times over two calls, want 2", resp.recycled)
	}
}
