package fault

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"imca/internal/cluster"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/iotrace"
	"imca/internal/sim"
	"imca/internal/xrand"
)

// A §4.4 fuzz input is a list of fixed-width records; a trailing partial
// record is ignored and at most maxRecords are read, so dropping bytes
// drops records and Go's minimizer shrinks a failing input by itself. A
// record is an op or a fault event, chosen by its first byte: below
// len(verbs) (mod 32) an op, otherwise a fault event.
//
//	op:    [verb] [client] [path] [offset/32] [size/16] [think time (2 bytes)]
//	fault: [-]    [client] [kind] [mcd]       [param]   [offset/500ns (2 bytes)]
//
// A client byte names one of eight clients (mod 8); the deployment has one
// client per name its ops use, numbered in order of first use, so dropping
// a client's ops drops the client (a fault naming no such client targets
// one that is, modulo their count).
const (
	recordLen  = 7
	maxRecords = 64
)

// fuzzPaths are the few paths every client shares; each exists, empty, as
// the schedule starts.
var fuzzPaths = [...]string{"/fz/a", "/fz/b", "/fz/c"}

// verbs maps an op record's selector to its kind, weighted toward the
// reads and writes whose pushes and purges interleave.
var verbs = [...]iotrace.Kind{
	iotrace.OpCreate, iotrace.OpCreate, iotrace.OpCreate, iotrace.OpOpen, iotrace.OpOpen,
	iotrace.OpClose, iotrace.OpClose, iotrace.OpClose, iotrace.OpStat, iotrace.OpStat, iotrace.OpStat,
	iotrace.OpTruncate, iotrace.OpTruncate, iotrace.OpUnlink, iotrace.OpUnlink, iotrace.OpUnlink,
	iotrace.OpRead, iotrace.OpRead, iotrace.OpRead, iotrace.OpRead, iotrace.OpRead, iotrace.OpRead,
	iotrace.OpWrite, iotrace.OpWrite, iotrace.OpWrite, iotrace.OpWrite, iotrace.OpWrite, iotrace.OpWrite,
}

// schedule is what an input decodes to: each client's ops, each preceded
// by its think time, and a fault plan that heals itself.
type schedule struct {
	clients, ops int
	trace        iotrace.Trace
	plan         *Plan
}

func (s *schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d clients, %d ops, %d fault events\n", s.clients, s.ops, len(s.plan.Events))
	_ = s.trace.Encode(&b)
	b.WriteString(s.plan.String())
	return b.String()
}

// decodeSchedule decodes data for a bank of nMCDs daemons.
func decodeSchedule(data []byte, nMCDs int) *schedule {
	s := &schedule{clients: 1}
	ids := map[byte]int{} // client name → number, in order of first use
	var faults [][]byte
	for i := 0; i < maxRecords && len(data) >= recordLen; i++ {
		rec := data[:recordLen]
		data = data[recordLen:]
		sel := int(rec[0]) % 32
		if sel >= len(verbs) {
			faults = append(faults, rec)
			continue
		}
		client, ok := ids[rec[1]%8]
		if !ok {
			client = len(ids)
			ids[rec[1]%8] = client
		}
		s.clients = len(ids)
		s.ops++
		op := iotrace.Op{Client: client, Kind: verbs[sel], Path: fuzzPaths[int(rec[2])%len(fuzzPaths)]}
		switch op.Kind {
		case iotrace.OpRead:
			op.Off, op.Size = int64(rec[3])*32, 1+int64(rec[4])*16
		case iotrace.OpWrite:
			// Distinct odd seeds: no two writes carry the same bytes.
			op.Off, op.Size, op.Seed = int64(rec[3])*32, 1+int64(rec[4])*16, uint64(2*i+1)
		case iotrace.OpTruncate:
			op.Size = int64(rec[3]) * 32
		}
		s.trace.Ops = append(s.trace.Ops, iotrace.Op{Client: client, Kind: iotrace.OpSleep, Size: int64(thinkTime(rec[5], rec[6]))}, op)
	}
	var events []Event
	for _, rec := range faults {
		client, ok := ids[rec[1]%8]
		if !ok {
			client = int(rec[1]%8) % s.clients
		}
		events = append(events, decodeEvent(rec, client, nMCDs))
	}
	s.plan = healed(events)
	return s
}

// thinkTime maps two bytes log-uniformly onto 10 µs–10 ms (ten octaves,
// linear within each), the band where one client's pushes and another's
// purges overlap.
func thinkTime(hi, lo byte) sim.Duration {
	u := int64(hi)<<8 | int64(lo)
	base := 10 * time.Microsecond << (u / 6554)
	return base + base*sim.Duration(u%6554)/6554
}

// decodeEvent decodes a fault record from the correctness-preserving
// vocabulary: the §4.4 argument covers cache loss (MCD crashes),
// client-side unreachability (client↔MCD link cuts, partitions of a client
// from the whole bank, and flapping), slow cache nodes (gray MCDs, whose
// invalidations still complete), and slow or refused storage (disk
// slowdowns, brick outages, whose writes fail cleanly before touching the
// disk). Asymmetric server↔MCD partitions are deliberately absent — they
// break the argument's assumption that the server can always purge what it
// cached, and TestOracleCatchesStaleRead shows the oracle flags them.
func decodeEvent(rec []byte, clientN, nMCDs int) Event {
	client := fmt.Sprintf("client%d", clientN)
	mcd := fmt.Sprintf("mcd%d", int(rec[3])%nMCDs)
	d := float64(rec[4])
	e := Event{At: sim.Duration(int64(rec[5])<<8|int64(rec[6])) * 500}
	switch rec[2] % 12 {
	case 0:
		e.Kind, e.Target = MCDCrash, mcd
	case 1:
		e.Kind, e.Target = MCDRecover, mcd
	case 2:
		e.Kind, e.Target, e.Peer = LinkCut, client, mcd
	case 3:
		e.Kind, e.Target, e.Peer = LinkHeal, client, mcd
	case 4:
		e.Kind, e.Target, e.Peer = LinkDegrade, client, mcd
		e.Latency, e.Bandwidth = 1+float64(rec[4]&15)/4, 0.25+float64(rec[4]>>4)/20
	case 5:
		e.Kind, e.Target, e.Factor = DiskSlow, "brick0", 1+d/85
	case 6:
		e.Kind, e.Target = BrickFail, "brick0"
	case 7:
		e.Kind, e.Target = BrickRecover, "brick0"
	case 8, 9:
		// The client against the entire bank at once.
		bank := make([]string, nMCDs)
		for m := range bank {
			bank[m] = fmt.Sprintf("mcd%d", m)
		}
		e.Kind, e.Target, e.Peer = Partition, client, strings.Join(bank, "+")
		if rec[2]%12 == 9 {
			e.Kind = PartitionHeal
		}
	case 10:
		// A short flap train: it always ends healed, under 4 ms past At.
		e.Kind, e.Target, e.Peer = LinkFlap, client, mcd
		e.Period, e.Count = sim.Duration(200+50*int(rec[4]&15))*time.Microsecond, 2+int(rec[4]>>4)%3
	case 11:
		e.Kind, e.Target, e.Factor = GrayNode, mcd, 1.5+d/102
	}
	return e
}

// healed orders events in time and appends, 5 ms after the last, one event
// closing each fault they leave open, so the audit runs against a healthy
// system.
func healed(events []Event) *Plan {
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	open := map[string]Event{} // what is still faulty → the event that heals it
	for _, e := range events {
		switch e.Kind {
		case MCDCrash:
			open["crash "+e.Target] = Event{Kind: MCDRecover, Target: e.Target}
		case MCDRecover:
			delete(open, "crash "+e.Target)
		case GrayNode:
			open["gray "+e.Target] = Event{Kind: GrayNode, Target: e.Target, Factor: 1}
		case DiskSlow:
			open["disk "+e.Target] = Event{Kind: DiskSlow, Target: e.Target, Factor: 1}
		case BrickFail:
			open["brick "+e.Target] = Event{Kind: BrickRecover, Target: e.Target}
		case BrickRecover:
			delete(open, "brick "+e.Target)
		case LinkCut, LinkDegrade, LinkHeal, Partition, PartitionHeal:
			for _, peer := range strings.Split(e.Peer, "+") {
				key := "link " + e.Target + "<->" + peer
				if e.Kind == LinkHeal || e.Kind == PartitionHeal {
					delete(open, key)
				} else {
					open[key] = Event{Kind: LinkHeal, Target: e.Target, Peer: peer}
				}
			}
		}
	}
	pl := &Plan{Name: "section44", Events: events}
	keys := make([]string, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e := open[k]
		e.At = events[len(events)-1].At + 5*time.Millisecond
		pl.Events = append(pl.Events, e)
	}
	return pl
}

// coverage is what runs of the fuzz exercised: failures the clients
// observed, and the oracle's counters.
type coverage struct {
	disturbed, reads, crossReads, stats, mutations uint64
}

// runSection44 is the mechanized §4.4 argument for one input: its schedule
// replayed through one oracle over every mount of a replicated bank while
// its plan's faults land, then a full read-back audit, must produce zero
// lost writes, zero stale reads, a coherent replica set, and a resident set
// the next purges delete. A failure prints the decoded schedule and plan.
func runSection44(t *testing.T, data []byte) coverage {
	t.Helper()
	const mcds = 3 // 3 daemons give every key a node outside its replica set
	s := decodeSchedule(data, mcds)
	c := cluster.New(cluster.Options{
		Clients:      s.clients,
		MCDs:         mcds,
		MCDMemBytes:  4 << 20,
		BlockSize:    1024,
		Threaded:     false,                  // Threaded mode's deferred pushes have a known freshness window
		EjectAfter:   2,                      // exercise the failover path under the faults
		Replicas:     2,                      // replica coherence is part of the invariant below
		SuspectAfter: 500 * time.Microsecond, // let gray nodes trip suspicion
	})
	o := NewOracle(c.FSes()...)
	c.Env.Process("setup", func(p *sim.Proc) {
		for _, path := range fuzzPaths {
			if fd, err := o.Mount(0).Create(p, path); err == nil {
				_ = o.Mount(0).Close(p, fd)
			}
		}
	})
	c.Env.Run()
	in := NewInjector(c)
	fr := flight.New(512)
	in.SetFlight(fr)
	c.SetFlight(fr)
	o.SetFlight(fr)
	if err := in.Arm(s.plan); err != nil {
		t.Fatalf("Arm: %v\n%s", err, s)
	}
	fail := func(what string, v []string) {
		t.Helper()
		if len(v) != 0 {
			t.Fatalf("%d %s violations:\n%s\n%s\nflight recorder:\n%s",
				len(v), what, strings.Join(v, "\n"), s, flightDump(fr))
		}
	}
	mounts := make([]gluster.FS, s.clients)
	for i := range mounts {
		mounts[i] = o.Mount(i)
	}
	iotrace.Replay(c.Env, mounts, &s.trace)
	c.Env.Run() // a schedule with no ops still fires its plan
	if got, want := in.Fired(), in.Armed(); got != want {
		t.Fatalf("fired %d of %d armed events\n%s\nflight recorder:\n%s", got, want, s, flightDump(fr))
	}
	// With the replayed files still open their blocks are resident: each
	// must be one their next purge deletes.
	fail("resident-set", AuditResident(c))
	c.Env.Process("audit", func(p *sim.Proc) { o.VerifyAll(p) })
	c.Env.Run()
	fail("invariant", o.Violations())
	fail("replica-coherence", AuditReplicas(c))
	fail("resident-set", AuditResident(c))
	st := c.BankStats()
	return coverage{st.DownReplies + st.Unreachables + st.Ejects, o.readChecks, o.crossReads, o.statChecks, o.mutations}
}

// section44Input is the gating runner's input for one seed: 2 to 8
// clients and 24 to 64 records, one in eight of them a fault event.
func section44Input(seed uint64) []byte {
	r := xrand.New(seed)
	clients := 2 + r.Intn(7)
	data := make([]byte, recordLen*(24+r.Intn(41)))
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	for i := 1; i < len(data); i += recordLen {
		data[i] = byte(r.Intn(clients))
	}
	return data
}

// TestFuzzPlansUpholdSection44 runs the §4.4 fuzz over 500 seeded inputs
// and requires that, together, they really exercised the argument: reads
// and stats judged, reads overlapping another mount's mutation, and bank
// traffic the faults disturbed.
func TestFuzzPlansUpholdSection44(t *testing.T) {
	var all coverage
	for seed := uint64(1); seed <= 500; seed++ {
		if !t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			c := runSection44(t, section44Input(seed))
			all.disturbed += c.disturbed
			all.reads += c.reads
			all.crossReads += c.crossReads
			all.stats += c.stats
			all.mutations += c.mutations
		}) {
			return
		}
	}
	t.Logf("%+v", all)
	if all.disturbed == 0 || all.reads == 0 || all.crossReads == 0 || all.stats == 0 || all.mutations == 0 {
		t.Fatalf("the inputs exercised nothing somewhere (%+v): a vacuous pass", all)
	}
}

// FuzzSection44 is the nightly target. A failing input lands in
// testdata/fuzz/FuzzSection44/ and replays in plain go test.
func FuzzSection44(f *testing.F) {
	for seed := uint64(101); seed <= 108; seed++ {
		f.Add(section44Input(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSection44(t, data) })
}

// flightDump renders the recorder for a failure message.
func flightDump(fr *flight.Recorder) string {
	var b strings.Builder
	fr.Dump(&b)
	return b.String()
}
