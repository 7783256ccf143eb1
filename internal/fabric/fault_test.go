package fabric

import (
	"errors"
	"testing"
	"time"

	"imca/internal/sim"
)

// TestCutLinkRefusesAfterTimeout: a call against an already-cut link hangs
// for the connect timeout, then fails with ErrUnreachable without sending
// anything.
func TestCutLinkRefusesAfterTimeout(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	a.net.CutLink("a", "b")
	env.Process("client", func(p *sim.Proc) {
		start := p.Now()
		resp, err := call(p, a, b, "echo", Bytes(64))
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
		if resp != nil {
			t.Errorf("resp = %v, want nil", resp)
		}
		if got := p.Now().Sub(start); got != DefaultConnectTimeout {
			t.Errorf("refused call took %v, want the %v connect timeout", got, DefaultConnectTimeout)
		}
	})
	env.Run()
	if a.TxMsgs != 0 {
		t.Errorf("refused call sent %d messages", a.TxMsgs)
	}
	if a.UnreachableCalls != 1 {
		t.Errorf("UnreachableCalls = %d, want 1", a.UnreachableCalls)
	}
}

// TestCutLinkUnorderedPair: cutting (b, a) partitions calls from a to b —
// link identity ignores endpoint order.
func TestCutLinkUnorderedPair(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	a.net.CutLink("b", "a")
	if !a.net.LinkCut("a", "b") {
		t.Fatal("LinkCut(a, b) = false after CutLink(b, a)")
	}
	env.Process("client", func(p *sim.Proc) {
		if _, err := call(p, a, b, "echo", Bytes(0)); !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
	})
	env.Run()
}

// TestHealLinkRestores: a healed link carries calls again at exactly the
// healthy cost.
func TestHealLinkRestores(t *testing.T) {
	env, a, b := newPair(t, IPoIB)

	var healthy sim.Duration
	env.Process("baseline", func(p *sim.Proc) {
		start := p.Now()
		call(p, a, b, "echo", Bytes(256))
		healthy = p.Now().Sub(start)
	})
	env.Run()

	a.net.CutLink("a", "b")
	a.net.HealLink("a", "b")
	env.Process("client", func(p *sim.Proc) {
		start := p.Now()
		if _, err := call(p, a, b, "echo", Bytes(256)); err != nil {
			t.Errorf("call on healed link failed: %v", err)
		}
		if got := p.Now().Sub(start); got != healthy {
			t.Errorf("healed-link RTT %v != healthy RTT %v", got, healthy)
		}
	})
	env.Run()
}

// TestDegradeLinkScalesLegs: degradation stretches the RTT, and healing
// restores the exact healthy cost.
func TestDegradeLinkScalesLegs(t *testing.T) {
	env, a, b := newPair(t, IPoIB)

	var healthy, degraded, healed sim.Duration
	timed := func(out *sim.Duration) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			start := p.Now()
			if _, err := call(p, a, b, "echo", Bytes(4096)); err != nil {
				t.Errorf("call failed: %v", err)
			}
			*out = p.Now().Sub(start)
		}
	}
	env.Process("healthy", timed(&healthy))
	env.Run()

	a.net.DegradeLink("a", "b", 4, 0.25)
	env.Process("degraded", timed(&degraded))
	env.Run()

	a.net.HealLink("a", "b")
	env.Process("healed", timed(&healed))
	env.Run()

	// 4x latency and 1/4 bandwidth stretch every wire leg; the RTT must
	// grow by well over 2x (host CPU costs are unscaled) but stay finite.
	if degraded < 2*healthy {
		t.Errorf("degraded RTT %v not clearly above healthy %v", degraded, healthy)
	}
	if healed != healthy {
		t.Errorf("healed RTT %v != healthy RTT %v", healed, healthy)
	}
}

// TestCutLinkAbortsInFlight: a cut landing while a request is in service
// aborts the caller at the cut instant with ErrUnreachable, and the
// handler's response is dropped instead of crossing the dead link.
func TestCutLinkAbortsInFlight(t *testing.T) {
	env := sim.NewEnv()
	net := NewNetwork(env, IPoIB)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	handled := false
	b.HandleT("slow", func(tk *sim.Task, _ *Node, req Msg, respond func(Msg)) {
		tk.Sleep(time.Millisecond, func() {
			handled = true
			respond(req)
		})
	})
	// Touch the fault table before traffic starts so the call is tracked.
	cutAt := 200 * time.Microsecond
	net.enableFaults()
	env.Defer(cutAt, func() { net.CutLink("a", "b") })

	env.Process("client", func(p *sim.Proc) {
		_, err := call(p, a, b, "slow", Bytes(0))
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
		if got := p.Now(); got != sim.Time(0).Add(cutAt) {
			t.Errorf("caller resumed at %v, want the cut instant %v", got, cutAt)
		}
	})
	env.Run()
	if !handled {
		t.Error("handler did not run to completion behind the cut")
	}
	if a.RxMsgs != 0 {
		t.Errorf("caller received %d messages across a cut link", a.RxMsgs)
	}
	if a.UnreachableCalls != 1 {
		t.Errorf("UnreachableCalls = %d, want 1", a.UnreachableCalls)
	}
}
