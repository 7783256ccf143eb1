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
	cl.SetEjection(3)
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
	if cl.Stats().Ejects != 1 || cl.Stats().FastFails != 1 || cl.Stats().DownReplies != 3 {
		t.Errorf("ejects=%d fastFails=%d downReplies=%d, want 1, 1, 3",
			cl.Stats().Ejects, cl.Stats().FastFails, cl.Stats().DownReplies)
	}
}

// TestEjectionProbeReadmits: once the backoff expires, one probe goes to
// the wire; against a recovered daemon it succeeds and readmits the server
// immediately.
func TestEjectionProbeReadmits(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.SetEjection(2)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k")
		cl.Get(p, "k")
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		cl.servers[0].Recover()
		p.Sleep(DefaultProbeBackoff)
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
	if cl.Stats().Probes != 1 || cl.Stats().Readmits != 1 {
		t.Errorf("probes=%d readmits=%d, want 1, 1", cl.Stats().Probes, cl.Stats().Readmits)
	}
}

// TestEjectionProbeBackoffDoubles: a failed probe doubles the wait before
// the next one.
func TestEjectionProbeBackoffDoubles(t *testing.T) {
	env, cl := simBank(1, 64)
	const backoff = DefaultProbeBackoff
	cl.SetEjection(1)
	cl.servers[0].Fail()
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k") // down reply: ejected, next probe in 5ms
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		p.Sleep(backoff)
		cl.Get(p, "k") // probe, fails: next probe in 10ms
		if cl.Stats().Probes != 1 {
			t.Fatalf("probes = %d, want 1", cl.Stats().Probes)
		}
		p.Sleep(backoff)
		cl.Get(p, "k") // only 5ms into the 10ms backoff: fast-fail
		if cl.Stats().Probes != 1 {
			t.Errorf("probe went out before the doubled backoff expired")
		}
		p.Sleep(backoff)
		cl.Get(p, "k") // past the 10ms backoff: probe
		if cl.Stats().Probes != 2 {
			t.Errorf("probes = %d after doubled backoff, want 2", cl.Stats().Probes)
		}
	})
	env.Run()
}

// TestGetMultiSkipsEjectedServers: a batched get spawns no worker and
// sends no request for keys on an ejected server; the healthy server still
// answers in the same batch.
func TestGetMultiSkipsEjectedServers(t *testing.T) {
	env, cl := simBank(2, 64)
	cl.SetEjection(1)
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
	if cl.Stats().FastFails != 1 {
		t.Errorf("fastFails = %d, want 1", cl.Stats().FastFails)
	}
}

// TestEjectionMidGetMulti: the daemon dies after the batch has scattered
// but before it replies. The gather leg must absorb the Down reply — the
// crashed server's keys are simply absent, the healthy server's keys still
// arrive, and the down reply itself trips ejection so the NEXT batch skips
// the server without spawning a worker.
func TestEjectionMidGetMulti(t *testing.T) {
	env, cl := simBank(2, 64)
	cl.SetEjection(1)
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
	if cl.Stats().Ejects != 1 || cl.Stats().DownReplies != 1 {
		t.Errorf("ejects=%d downReplies=%d, want 1, 1", cl.Stats().Ejects, cl.Stats().DownReplies)
	}
}

// TestEjectionProbeBackoffCaps: each failed probe doubles the wait, but
// the doubling stops at maxBackoffMult× the initial delay — a long outage
// still gets probed at a steady rate instead of a vanishing one.
func TestEjectionProbeBackoffCaps(t *testing.T) {
	env, cl := simBank(1, 64)
	const backoff = DefaultProbeBackoff
	cl.SetEjection(1)
	cl.servers[0].Fail()
	var probeAt []sim.Time
	env.Process("t", func(p *sim.Proc) {
		cl.Get(p, "k") // down reply: ejected, first probe due in 5ms
		if !cl.Ejected(0) {
			t.Fatal("server not ejected")
		}
		// Nine failed probes against a daemon that stays dead: the gap
		// doubles 1, 2, 4, ... then pins at the ×64 cap.
		for i := 0; i < 9; i++ {
			p.Sleep(cl.health[0].eject.probeAt.Sub(p.Now()))
			probeAt = append(probeAt, p.Now())
			cl.Get(p, "k")
		}
	})
	env.Run()
	if cl.Stats().Probes != 9 {
		t.Fatalf("probes = %d, want 9", cl.Stats().Probes)
	}
	cap := sim.Duration(maxBackoffMult) * backoff
	if got := cl.health[0].eject.backoff; got != cap {
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
	if cl.Stats().DownReplies != 5 {
		t.Errorf("downReplies = %d, want 5", cl.Stats().DownReplies)
	}
	if cl.Stats().Ejects != 0 || cl.Stats().Probes != 0 || cl.Stats().FastFails != 0 {
		t.Errorf("ejection counters moved while disabled: ejects=%d probes=%d fastFails=%d",
			cl.Stats().Ejects, cl.Stats().Probes, cl.Stats().FastFails)
	}
}

// TestEjectionSuccessResetsFailStreak: failures only eject when
// consecutive — a success in between starts the count over.
func TestEjectionSuccessResetsFailStreak(t *testing.T) {
	env, cl := simBank(1, 64)
	cl.SetEjection(2)
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

// TestSuspicion drives the latency-suspicion state machine against a gray
// daemon: mcd0 answers every request correctly but slowdown times slower.
// Each case runs in a fresh two-MCD bank with suspicion at threshold and
// the default probe backoff; k0 is a key on mcd0.
func TestSuspicion(t *testing.T) {
	const (
		threshold = time.Millisecond
		slowdown  = 1000 // a get's 6 µs of service becomes 6 ms
	)
	// timedGet gets key and returns whether it hit and how long it took.
	timedGet := func(p *sim.Proc, cl *SimClient, key string) (bool, sim.Duration) {
		start := p.Now()
		_, ok := cl.Get(p, key)
		return ok, p.Now().Sub(start)
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string)
	}{
		{"no suspicion before 8 samples", func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string) {
			cl.servers[0].SetSlowdown(slowdown)
			for i := 1; i < suspectMinSamples; i++ {
				if _, took := timedGet(p, cl, k0); took <= threshold {
					t.Fatalf("get %d took %v, not over the %v threshold", i, took, threshold)
				}
				if cl.Suspected(0) {
					t.Fatalf("suspected after %d samples, want %d first", i, suspectMinSamples)
				}
			}
			timedGet(p, cl, k0)
			if !cl.Suspected(0) || cl.Stats().Suspects != 1 {
				t.Errorf("after %d slow samples: suspected %v, suspects %d; want true, 1", suspectMinSamples, cl.Suspected(0), cl.Stats().Suspects)
			}
		}},
		{"suspected once the EWMA crosses the threshold", func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string) {
			var ewma float64
			observe := func(took sim.Duration, n int) {
				if n == 0 {
					ewma = float64(took)
				} else {
					ewma += suspectAlpha * (float64(took) - ewma)
				}
			}
			n := 0
			for ; n < 2*suspectMinSamples; n++ { // healthy: well under the threshold
				_, took := timedGet(p, cl, k0)
				observe(took, n)
			}
			if cl.Suspected(0) {
				t.Fatalf("suspected at healthy speed (EWMA %v)", sim.Duration(ewma))
			}
			cl.servers[0].SetSlowdown(slowdown)
			for ; !cl.Suspected(0); n++ {
				if sim.Duration(ewma) > threshold {
					t.Fatalf("EWMA %v is over the threshold and mcd0 is not suspected", sim.Duration(ewma))
				}
				_, took := timedGet(p, cl, k0)
				observe(took, n)
			}
			if sim.Duration(ewma) <= threshold {
				t.Errorf("suspected with the EWMA at %v, under the threshold", sim.Duration(ewma))
			}
			if cl.Suspected(1) {
				t.Error("the healthy daemon is suspected too")
			}
		}},
		{"reads fast-fail or fail over while sets and deletes reach the daemon", func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string) {
			if err := cl.Set(p, k0, blob.FromString("v")); err != nil {
				t.Fatal(err)
			}
			cl.servers[0].SetSlowdown(slowdown)
			for !cl.Suspected(0) {
				timedGet(p, cl, k0)
			}
			mcd0 := cl.servers[0].Store()
			tx, gets := cl.node.TxMsgs, mcd0.Stats().CmdGet
			if ok, took := timedGet(p, cl, k0); ok || took != 0 {
				t.Errorf("get of a suspected server: hit %v after %v; want an instant miss", ok, took)
			}
			if got := cl.GetMulti(p, []string{k0, k0}); got[0] != nil || got[1] != nil {
				t.Error("batched get returned a key from a suspected server")
			}
			if cl.node.TxMsgs != tx || mcd0.Stats().CmdGet != gets {
				t.Errorf("reads of a suspected server sent %d messages", cl.node.TxMsgs-tx)
			}
			if cl.Stats().FastFails != 2 {
				t.Errorf("fastFails = %d, want 2 (one get, one batch)", cl.Stats().FastFails)
			}
			// With a replica the read fails over instead, to the copy on mcd1.
			storeOn(t, cl, 1, k0)
			cl.SetReplication(2)
			if it, ok := cl.Get(p, k0); !ok || string(it.Value.Bytes()) != "v" {
				t.Errorf("replicated get of a suspected primary = %v, %v; want the replica's copy", it, ok)
			}
			if cl.Stats().Failovers != 1 {
				t.Errorf("failovers = %d, want 1", cl.Stats().Failovers)
			}
			sets := mcd0.Stats().CmdSet
			if err := cl.Set(p, k0, blob.FromString("w")); err != nil {
				t.Errorf("set to a suspected server: %v", err)
			}
			if !cl.Delete(p, k0) {
				t.Error("delete to a suspected server did not find the key")
			}
			if st := mcd0.Stats(); st.CmdSet != sets+1 || st.DeleteHits != 1 {
				t.Errorf("the suspected daemon saw %d sets and %d deletes, want 1 and 1", st.CmdSet-sets, st.DeleteHits)
			}
		}},
		{"one probe per backoff, doubling up to the cap", func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string) {
			cl.servers[0].SetSlowdown(slowdown)
			for !cl.Suspected(0) {
				timedGet(p, cl, k0)
			}
			want := DefaultProbeBackoff
			for probe := 1; probe <= 9; probe++ {
				g := cl.health[0].suspect
				if g.backoff != want {
					t.Fatalf("before probe %d: backoff %v, want %v", probe, g.backoff, want)
				}
				p.Sleep(g.probeAt.Sub(p.Now()) - 1)
				probes := cl.Stats().Probes
				if _, took := timedGet(p, cl, k0); took != 0 || cl.Stats().Probes != probes {
					t.Fatalf("a read 1 ns before probe %d went out", probe)
				}
				p.Sleep(1)
				if _, took := timedGet(p, cl, k0); took <= threshold || cl.Stats().Probes != probes+1 {
					t.Fatalf("probe %d: took %v, probes %d; want a slow read and one probe", probe, took, cl.Stats().Probes-probes)
				}
				want = min(2*want, maxBackoffMult*DefaultProbeBackoff)
			}
			if got := cl.health[0].suspect.backoff; got != maxBackoffMult*DefaultProbeBackoff {
				t.Errorf("backoff after 9 slow probes = %v, want capped at %v", got, maxBackoffMult*DefaultProbeBackoff)
			}
			if !cl.Suspected(0) || cl.Stats().Suspects != 1 || cl.Stats().SuspectClears != 0 {
				t.Errorf("slow probes moved the suspicion: suspected %v, suspects %d, clears %d", cl.Suspected(0), cl.Stats().Suspects, cl.Stats().SuspectClears)
			}
		}},
		{"a fast probe clears the suspicion and restarts the EWMA", func(t *testing.T, p *sim.Proc, cl *SimClient, k0 string) {
			cl.servers[0].SetSlowdown(slowdown)
			for !cl.Suspected(0) {
				timedGet(p, cl, k0)
			}
			cl.servers[0].SetSlowdown(1)
			p.Sleep(cl.health[0].suspect.probeAt.Sub(p.Now()))
			if _, took := timedGet(p, cl, k0); took == 0 || took > threshold {
				t.Fatalf("probe took %v, want a healthy read", took)
			}
			if cl.Suspected(0) || cl.Stats().SuspectClears != 1 {
				t.Fatalf("after a fast probe: suspected %v, clears %d; want false, 1", cl.Suspected(0), cl.Stats().SuspectClears)
			}
			// The estimator restarted from the probe's one sample: slow
			// samples must build up to eight again before it judges.
			cl.servers[0].SetSlowdown(slowdown)
			for i := 2; i < suspectMinSamples; i++ {
				timedGet(p, cl, k0)
				if cl.Suspected(0) {
					t.Fatalf("re-suspected at sample %d of the restarted estimator", i)
				}
			}
			timedGet(p, cl, k0)
			if !cl.Suspected(0) || cl.Stats().Suspects != 2 {
				t.Errorf("after 8 samples of the restarted estimator: suspected %v, suspects %d; want true, 2", cl.Suspected(0), cl.Stats().Suspects)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, cl := simBank(2, 64)
			cl.SetSuspicion(threshold)
			k0 := keysFor(cl)[0]
			env.Process("t", func(p *sim.Proc) { tc.run(t, p, cl, k0) })
			env.Run()
		})
	}
}
