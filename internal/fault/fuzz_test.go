package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/xrand"
)

// fuzzPlans returns how many random fault plans the fuzz test drives
// through the oracle: 100 by default, overridable via IMCA_FUZZ_PLANS for
// the nightly long-fuzz job.
func fuzzPlans() int {
	if s := os.Getenv("IMCA_FUZZ_PLANS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100
}

// writeFuzzArtifacts saves the failing plan and flight-recorder ring to
// the IMCA_FUZZ_ARTIFACTS directory (when set), so a CI job can upload
// them for verbatim replay.
func writeFuzzArtifacts(t *testing.T, seed uint64, pl *Plan, fr *flight.Recorder) {
	t.Helper()
	dir := os.Getenv("IMCA_FUZZ_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("fuzz artifacts: %v", err)
		return
	}
	name := fmt.Sprintf("fuzz-seed-%#x", seed)
	if err := os.WriteFile(filepath.Join(dir, name+".plan.txt"), []byte(pl.String()), 0o644); err != nil {
		t.Logf("fuzz artifacts: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".flight.txt"), []byte(flightDump(fr)), 0o644); err != nil {
		t.Logf("fuzz artifacts: %v", err)
	}
	t.Logf("fuzz artifacts for seed %#x written to %s", seed, dir)
}

// fuzzState tracks which fault kinds are open so genPlan can close them.
// The generator draws from the correctness-preserving set: the §4.4
// argument covers cache loss (MCD crashes), client-side unreachability
// (client↔MCD link cuts, group partitions, and flapping), slow cache
// nodes (gray MCDs, whose invalidations still complete), and slow or
// refused storage (disk slowdowns, brick outages, whose writes fail
// cleanly before touching the disk). Asymmetric server↔MCD partitions
// are deliberately absent — they break the argument's assumption that
// the server can always purge what it cached, and
// TestOracleCatchesStaleRead shows the oracle flags them.
type fuzzState struct {
	crashedMCD map[int]bool
	cutLink    map[int]bool // client0<->mcdN
	degraded   map[int]bool
	gray       map[int]bool
	brickDown  bool
	diskSlow   bool
}

// genPlan generates a random well-formed plan over a cluster with nMCDs
// daemons, appending closing events so every fault is healed before the
// end-of-run audit.
func genPlan(r *xrand.Rand, name string, nMCDs int, span sim.Duration) *Plan {
	st := fuzzState{crashedMCD: map[int]bool{}, cutLink: map[int]bool{}, degraded: map[int]bool{}, gray: map[int]bool{}}
	// bankGroup names the whole MCD bank as one partition-group spec.
	parts := make([]string, nMCDs)
	for m := range parts {
		parts[m] = fmt.Sprintf("mcd%d", m)
	}
	bankGroup := strings.Join(parts, "+")
	pl := &Plan{Name: name}
	n := 4 + r.Intn(7)
	at := sim.Duration(0)
	for i := 0; i < n; i++ {
		at += sim.Duration(r.Int63n(int64(span) / int64(n)))
		m := r.Intn(nMCDs)
		link := fmt.Sprintf("mcd%d", m)
		switch r.Intn(12) {
		case 0:
			pl.Events = append(pl.Events, Event{At: at, Kind: MCDCrash, Target: link})
			st.crashedMCD[m] = true
		case 1:
			pl.Events = append(pl.Events, Event{At: at, Kind: MCDRecover, Target: link})
			st.crashedMCD[m] = false
		case 2:
			pl.Events = append(pl.Events, Event{At: at, Kind: LinkCut, Target: "client0", Peer: link})
			st.cutLink[m] = true
		case 3:
			pl.Events = append(pl.Events, Event{At: at, Kind: LinkHeal, Target: "client0", Peer: link})
			st.cutLink[m], st.degraded[m] = false, false
		case 4:
			pl.Events = append(pl.Events, Event{At: at, Kind: LinkDegrade, Target: "client0", Peer: link,
				Latency: 1 + r.Float64()*4, Bandwidth: 0.25 + r.Float64()*0.75})
			st.degraded[m] = true
		case 5:
			pl.Events = append(pl.Events, Event{At: at, Kind: DiskSlow, Target: "brick0",
				Factor: 1 + r.Float64()*3})
			st.diskSlow = true
		case 6:
			pl.Events = append(pl.Events, Event{At: at, Kind: BrickFail, Target: "brick0"})
			st.brickDown = true
		case 7:
			pl.Events = append(pl.Events, Event{At: at, Kind: BrickRecover, Target: "brick0"})
			st.brickDown = false
		case 8:
			// Cut the client off from the entire bank at once.
			pl.Events = append(pl.Events, Event{At: at, Kind: Partition, Target: "client0", Peer: bankGroup})
			for g := 0; g < nMCDs; g++ {
				st.cutLink[g] = true
			}
		case 9:
			pl.Events = append(pl.Events, Event{At: at, Kind: PartitionHeal, Target: "client0", Peer: bankGroup})
			for g := 0; g < nMCDs; g++ {
				st.cutLink[g], st.degraded[g] = false, false
			}
		case 10:
			// A short flap train; it always ends with a heal, and the
			// closing sweep below runs after its last cycle (count ≤ 4,
			// period ≤ 1ms, so the train ends under 4ms past at).
			pl.Events = append(pl.Events, Event{At: at, Kind: LinkFlap, Target: "client0", Peer: link,
				Period: sim.Duration(200+r.Int63n(800)) * sim.Duration(time.Microsecond),
				Count:  2 + r.Intn(3)})
		case 11:
			pl.Events = append(pl.Events, Event{At: at, Kind: GrayNode, Target: link,
				Factor: 1.5 + r.Float64()*2.5})
			st.gray[m] = true
		}
	}
	// Close every open fault so the audit runs against a healthy system.
	end := span + 5*time.Millisecond
	for m := 0; m < nMCDs; m++ {
		if st.crashedMCD[m] {
			pl.Events = append(pl.Events, Event{At: end, Kind: MCDRecover, Target: fmt.Sprintf("mcd%d", m)})
		}
		if st.cutLink[m] || st.degraded[m] {
			pl.Events = append(pl.Events, Event{At: end, Kind: LinkHeal, Target: "client0", Peer: fmt.Sprintf("mcd%d", m)})
		}
	}
	if st.brickDown {
		pl.Events = append(pl.Events, Event{At: end, Kind: BrickRecover, Target: "brick0"})
	}
	if st.diskSlow {
		pl.Events = append(pl.Events, Event{At: end, Kind: DiskSlow, Target: "brick0", Factor: 1})
	}
	for m := 0; m < nMCDs; m++ {
		if st.gray[m] {
			pl.Events = append(pl.Events, Event{At: end, Kind: GrayNode, Target: fmt.Sprintf("mcd%d", m), Factor: 1})
		}
	}
	return pl
}

// fuzzWorkload drives a mixed create/write/read/stat/truncate/unlink
// stream through the oracle on one client, sleeping between operations so
// the plan's faults land at varied points inside operations. It returns the
// descriptors still open, in path order: a close purges, so the caller
// audits the bank's resident set before closing them.
func fuzzWorkload(t *testing.T, p *sim.Proc, o *Oracle, r *xrand.Rand, ops int) (open []gluster.FD) {
	t.Helper()
	paths := []string{"/fz/a", "/fz/b", "/fz/c", "/fz/d", "/fz/e", "/fz/f"}
	fds := map[string]gluster.FD{}
	live := map[string]bool{}
	seed := uint64(1)

	ensureOpen := func(path string) (gluster.FD, bool) {
		if fd, ok := fds[path]; ok {
			return fd, true
		}
		var fd gluster.FD
		var err error
		if live[path] {
			fd, err = o.Open(p, path)
		} else {
			fd, err = o.Create(p, path)
		}
		if err != nil {
			return 0, false // a fault refused the op; fine
		}
		live[path] = true
		fds[path] = fd
		return fd, true
	}

	for i := 0; i < ops; i++ {
		path := paths[r.Intn(len(paths))]
		switch r.Intn(10) {
		case 0, 1, 2: // write
			if fd, ok := ensureOpen(path); ok {
				seed++
				off := r.Int63n(6 << 10)
				size := 1 + r.Int63n(2<<10)
				o.Write(p, fd, off, blob.Synthetic(seed, 0, size))
			}
		case 3, 4, 5: // read
			if fd, ok := ensureOpen(path); ok {
				o.Read(p, fd, r.Int63n(8<<10), 1+r.Int63n(4<<10))
			}
		case 6: // stat
			if live[path] {
				o.Stat(p, path)
			}
		case 7: // truncate
			if live[path] {
				o.Truncate(p, path, r.Int63n(8<<10))
			}
		case 8: // close + reopen churn
			if fd, ok := fds[path]; ok {
				if o.Close(p, fd) == nil {
					delete(fds, path)
				}
			}
		case 9: // unlink
			if fd, ok := fds[path]; ok {
				if o.Close(p, fd) == nil {
					delete(fds, path)
				}
			}
			if live[path] && o.Unlink(p, path) == nil {
				live[path] = false
			}
		}
		p.Sleep(sim.Duration(r.Int63n(int64(200 * time.Microsecond))))
	}
	for _, path := range paths {
		if fd, ok := fds[path]; ok {
			open = append(open, fd)
		}
	}
	return open
}

// TestFuzzPlansUpholdSection44 is the mechanized §4.4 argument: random
// fault plans over the full vocabulary (crashes, cuts, partitions, flaps,
// gray nodes, degrades, disk and brick faults) driven through a mixed
// workload on a replicated bank, each followed by a full read-back audit,
// must produce zero lost writes, zero stale reads, and a coherent replica
// set. A failure prints the offending plan and seed for verbatim replay
// and saves both to IMCA_FUZZ_ARTIFACTS when set.
func TestFuzzPlansUpholdSection44(t *testing.T) {
	var disturbed uint64 // failures the clients actually observed, summed over all plans
	plans := fuzzPlans()
	for i := 0; i < plans; i++ {
		const baseSeed = 0xFA017
		seed := uint64(baseSeed + i)
		r := xrand.New(seed)
		c := cluster.New(cluster.Options{
			Clients:      1,
			MCDs:         3, // 3 daemons give every key a node outside its replica set
			MCDMemBytes:  4 << 20,
			BlockSize:    1024,
			Threaded:     false,                  // Threaded mode's deferred pushes have a known freshness window
			EjectAfter:   2,                      // exercise the failover path under the faults
			Replicas:     2,                      // replica coherence is part of the invariant below
			SuspectAfter: 500 * time.Microsecond, // let gray nodes trip suspicion
		})
		in := NewInjector(c)
		fr := flight.New(512)
		in.SetFlight(fr)
		c.SetFlight(fr)
		pl := genPlan(r, fmt.Sprintf("fuzz-%d", i), len(c.MCDs), 40*time.Millisecond)
		if err := in.Arm(pl); err != nil {
			t.Fatalf("seed %#x: Arm: %v\n%s", seed, err, pl)
		}
		o := NewOracle(c.Mounts[0].FS)
		o.SetFlight(fr)
		fail := func(what string, v []string) {
			t.Helper()
			if len(v) != 0 {
				writeFuzzArtifacts(t, seed, pl, fr)
				t.Fatalf("seed %#x: %d %s violations:\n%s\nreplay with:\n%s\nflight recorder:\n%s",
					seed, len(v), what, strings.Join(v, "\n"), pl, flightDump(fr))
			}
		}
		var open []gluster.FD
		c.Env.Process("workload", func(p *sim.Proc) {
			open = fuzzWorkload(t, p, o, r, 120)
		})
		c.Env.Run() // workload + every fault timer, including the closing heals
		if got, want := in.Fired(), in.Armed(); got != want {
			writeFuzzArtifacts(t, seed, pl, fr)
			t.Fatalf("seed %#x: fired %d of %d armed events\n%s\nflight recorder:\n%s",
				seed, got, want, pl, flightDump(fr))
		}
		// With the workload's files still open their blocks are resident:
		// each must be one their next purge deletes.
		fail("resident-set", AuditResident(c))
		c.Env.Process("audit", func(p *sim.Proc) {
			for _, fd := range open {
				_ = o.Close(p, fd)
			}
			o.VerifyAll(p)
		})
		c.Env.Run()
		fail("invariant", o.Violations())
		fail("replica-coherence", AuditReplicas(c))
		fail("resident-set", AuditResident(c))
		st := c.BankStats()
		disturbed += st.DownReplies + st.Unreachables + st.Ejects
	}
	// The invariant only means something if the plans really disrupted the
	// workload; an all-quiet run would be a vacuous pass.
	if disturbed == 0 {
		t.Fatal("no plan disturbed the bank traffic; the fuzz exercised nothing")
	}
}

// flightDump renders the recorder for a failure message.
func flightDump(fr *flight.Recorder) string {
	var b strings.Builder
	fr.Dump(&b)
	return b.String()
}
