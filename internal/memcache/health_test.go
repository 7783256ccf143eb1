package memcache

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/sim"
)

// keysFor returns distinct keys that the client's selector maps to each of
// the bank's servers: out[i] is a key served by server i.
func keysFor(cl *SimClient) []string {
	out := make([]string, len(cl.servers))
	found := 0
	for i := 0; found < len(out); i++ {
		k := fmt.Sprintf("key%d", i)
		s := cl.selector.Pick(k, len(cl.servers))
		if out[s] == "" {
			out[s] = k
			found++
		}
	}
	return out
}

// TestEjectionAfterKFailures: K consecutive Down replies eject the server;
// the next request fast-fails in zero virtual time without a wire message.
func TestEjectionAfterKFailures(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.SetEjection(3, 2*time.Millisecond)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, ok := cl.Get(p, "k"); ok {
				t.Error("hit from a failed daemon")
			}
		}
		if !cl.Ejected(0) {
			t.Fatal("server not ejected after 3 down replies")
		}
		txBefore, start := cl.node.TxMsgs, p.Now()
		if _, ok := cl.Get(p, "k"); ok {
			t.Error("hit from an ejected server")
		}
		if cl.node.TxMsgs != txBefore {
			t.Error("fast-failed request serialized onto the NIC")
		}
		if p.Now() != start {
			t.Errorf("fast-failed request cost %v virtual time", p.Now().Sub(start))
		}
	})
	env.Run()
	if cl.Ejects() != 1 || cl.FastFails() != 1 || cl.DownReplies() != 3 {
		t.Errorf("ejects=%d fastFails=%d downReplies=%d, want 1, 1, 3",
			cl.Ejects(), cl.FastFails(), cl.DownReplies())
	}
}

// TestEjectionProbeReadmits: once the backoff expires, one probe goes to
// the wire; against a recovered daemon it succeeds and readmits the server
// immediately.
func TestEjectionProbeReadmits(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.SetEjection(2, 2*time.Millisecond)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k")
		cl.Get(p, "k")
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		cl.servers[0].Recover()
		p.Sleep(2 * time.Millisecond)
		if err := cl.Set(p, "k", blob.FromString("v")); err != nil {
			t.Errorf("probe set failed: %v", err)
		}
		if cl.Ejected(0) {
			t.Error("server still ejected after successful probe")
		}
		if it, ok := cl.Get(p, "k"); !ok || string(it.Value.Bytes()) != "v" {
			t.Errorf("get after readmit = %v, %v", it, ok)
		}
	})
	env.Run()
	if cl.Probes() != 1 || cl.Readmits() != 1 {
		t.Errorf("probes=%d readmits=%d, want 1, 1", cl.Probes(), cl.Readmits())
	}
}

// TestEjectionProbeBackoffDoubles: a failed probe doubles the wait before
// the next one.
func TestEjectionProbeBackoffDoubles(t *testing.T) {
	env, cl := simBank(1, 64)
	const backoff = 2 * time.Millisecond
	cl.SetEjection(1, backoff)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k") // down reply: ejected, next probe in 2ms
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		p.Sleep(backoff)
		cl.Get(p, "k") // probe, fails: next probe in 4ms
		if cl.Probes() != 1 {
			t.Fatalf("probes = %d, want 1", cl.Probes())
		}
		p.Sleep(2 * time.Millisecond)
		cl.Get(p, "k") // only ~2ms into the 4ms backoff: fast-fail
		if cl.Probes() != 1 {
			t.Errorf("probe went out before the doubled backoff expired")
		}
		p.Sleep(2 * time.Millisecond)
		cl.Get(p, "k") // past the 4ms backoff: probe
		if cl.Probes() != 2 {
			t.Errorf("probes = %d after doubled backoff, want 2", cl.Probes())
		}
	})
	env.Run()
}

// TestGetMultiSkipsEjectedServers: a batched get spawns no worker and
// sends no request for keys on an ejected server; the healthy server still
// answers in the same batch.
func TestGetMultiSkipsEjectedServers(t *testing.T) {
	env, cl := simBank(2, 64)
	cl.SetEjection(1, 5*time.Millisecond)
	keys := keysFor(cl)
	env.Process("t", func(p *sim.Proc) {
		for i, k := range keys {
			if err := cl.Set(p, k, blob.FromString(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("set %q: %v", k, err)
			}
		}
		cl.servers[0].Fail()
		cl.Get(p, keys[0]) // down reply ejects server 0
		if !cl.Ejected(0) {
			t.Fatal("server 0 not ejected")
		}
		txBefore := cl.node.TxMsgs
		got := cl.GetMulti(p, keys)
		if cl.node.TxMsgs != txBefore+1 {
			t.Errorf("batched get sent %d messages, want 1 (healthy server only)",
				cl.node.TxMsgs-txBefore)
		}
		if got[0] != nil {
			t.Error("batched get returned a key from an ejected server")
		}
		if it := got[1]; it == nil || string(it.Value.Bytes()) != "v1" {
			t.Errorf("healthy server's key = %v", it)
		}
	})
	env.Run()
	if cl.FastFails() != 1 {
		t.Errorf("fastFails = %d, want 1", cl.FastFails())
	}
}

// TestEjectionMidGetMulti: the daemon dies after the batch has scattered
// but before it replies. The gather leg must absorb the Down reply — the
// crashed server's keys are simply absent, the healthy server's keys still
// arrive, and the down reply itself trips ejection so the NEXT batch skips
// the server without spawning a worker.
func TestEjectionMidGetMulti(t *testing.T) {
	env, cl := simBank(2, 64)
	cl.SetEjection(1, 5*time.Millisecond)
	keys := keysFor(cl)
	env.Process("t", func(p *sim.Proc) {
		for i, k := range keys {
			if err := cl.Set(p, k, blob.FromString(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("set %q: %v", k, err)
			}
		}
		// The scatter serializes both requests now; the crash lands half a
		// wire latency later — in flight, before either daemon has replied.
		env.Defer(fabric.IPoIB.Latency/2, func() { cl.servers[0].Fail() })
		txBefore := cl.node.TxMsgs
		got := cl.GetMulti(p, keys)
		if cl.node.TxMsgs != txBefore+2 {
			t.Errorf("scatter sent %d messages, want 2 (crash must postdate the scatter)",
				cl.node.TxMsgs-txBefore)
		}
		if got[0] != nil {
			t.Error("batched get returned a key from a daemon that died mid-batch")
		}
		if it := got[1]; it == nil || string(it.Value.Bytes()) != "v1" {
			t.Errorf("healthy server's key = %v", it)
		}
		if !cl.Ejected(0) {
			t.Error("mid-batch down reply did not eject the server")
		}
		txBefore = cl.node.TxMsgs
		got = cl.GetMulti(p, keys)
		if cl.node.TxMsgs != txBefore+1 {
			t.Errorf("post-ejection batch sent %d messages, want 1 (ejected server must be skipped)",
				cl.node.TxMsgs-txBefore)
		}
		if got[1] == nil {
			t.Error("healthy server's key missing from the post-ejection batch")
		}
	})
	env.Run()
	if cl.Ejects() != 1 || cl.DownReplies() != 1 {
		t.Errorf("ejects=%d downReplies=%d, want 1, 1", cl.Ejects(), cl.DownReplies())
	}
}

// TestEjectionProbeBackoffCaps: each failed probe doubles the wait, but
// the doubling stops at maxBackoffMult× the initial delay — a long outage
// still gets probed at a steady rate instead of a vanishing one.
func TestEjectionProbeBackoffCaps(t *testing.T) {
	env, cl := simBank(1, 64)
	const backoff = time.Millisecond
	cl.SetEjection(1, backoff)
	cl.servers[0].Fail()
	var probeAt []sim.Time
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k") // down reply: ejected, first probe due in 1ms
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		// Nine failed probes against a daemon that stays dead: the gap
		// doubles 1, 2, 4, ... then pins at the ×64 cap.
		for i := 0; i < 9; i++ {
			p.Sleep(cl.health[0].probeAt.Sub(p.Now()))
			probeAt = append(probeAt, p.Now())
			cl.Get(p, "k")
		}
	})
	env.Run()
	if cl.Probes() != 9 {
		t.Fatalf("probes = %d, want 9", cl.Probes())
	}
	cap := sim.Duration(maxBackoffMult) * backoff
	if got := cl.health[0].backoff; got != cap {
		t.Errorf("backoff after 9 failed probes = %v, want capped at %v", got, cap)
	}
	// Probe 7 onward is paced by the cap (2^6 = 64): each gap is the cap
	// plus the failed probe's own wire round trip, and — decisively — the
	// gaps stop doubling.
	for i := 7; i < len(probeAt); i++ {
		gap := probeAt[i].Sub(probeAt[i-1])
		if gap < cap || gap > cap+time.Millisecond {
			t.Errorf("gap before probe %d = %v, want ~%v", i+1, gap, cap)
		}
	}
	if g8, g9 := probeAt[8].Sub(probeAt[7]), probeAt[7].Sub(probeAt[6]); g8 != g9 {
		t.Errorf("capped gaps still changing: %v then %v", g9, g8)
	}
}

// TestEjectionDisabledByDefault: without SetEjection a down daemon is
// still asked every time — the paper's no-failover client — and the
// ejection counters stay untouched.
func TestEjectionDisabledByDefault(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			start := p.Now()
			cl.Get(p, "k")
			if p.Now() == start {
				t.Error("down-daemon request cost no time with ejection disabled")
			}
		}
	})
	env.Run()
	if cl.DownReplies() != 5 {
		t.Errorf("downReplies = %d, want 5", cl.DownReplies())
	}
	if cl.Ejects() != 0 || cl.Probes() != 0 || cl.FastFails() != 0 {
		t.Errorf("ejection counters moved while disabled: ejects=%d probes=%d fastFails=%d",
			cl.Ejects(), cl.Probes(), cl.FastFails())
	}
}

// TestEjectionSuccessResetsFailStreak: failures only eject when
// consecutive — a success in between starts the count over.
func TestEjectionSuccessResetsFailStreak(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.SetEjection(2, 2*time.Millisecond)
	env.Process("t", func(p *sim.Proc) {
		cl.Set(p, "k", blob.FromString("v"))
		cl.servers[0].Fail()
		cl.Get(p, "k") // fail 1
		cl.servers[0].Recover()
		cl.Get(p, "k") // success: streak resets (miss — the crash emptied the store)
		cl.servers[0].Fail()
		cl.Get(p, "k") // fail 1 again
		if cl.Ejected(0) {
			t.Error("server ejected despite interleaved success")
		}
		cl.Get(p, "k") // fail 2: now ejected
		if !cl.Ejected(0) {
			t.Error("server not ejected after two consecutive failures")
		}
	})
	env.Run()
}
