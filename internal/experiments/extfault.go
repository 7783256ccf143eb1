package experiments

import (
	"fmt"
	"slices"
	"time"

	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// The dataset and sampling grain of ext-fault.
const (
	faultPath     = "/fault/f0"
	faultRecSize  = int64(2048)
	faultFileSize = int64(128 << 10)
	faultInterval = 5 * time.Millisecond
)

// ExtFault measures graceful degradation (§4.4) through three failure
// shapes on one timeline, each healed before the next, all on the node
// carrying mcd0:
//   - a node crash and reboot: a client↔mcd0 link cut (the node stops
//     answering, so lookups hang until the connect timeout) plus an MCD
//     crash (the daemon restarts empty);
//   - a fabric partition between the client and mcd0;
//   - a gray node: the daemon answers correctly but 20× slower, so
//     error-counting ejection never fires and only latency-based
//     suspicion catches it.
//
// One client re-reads a warmed dataset, each read followed by a stat, in
// three columns: the paper's plain client, which pays the connect timeout
// on every lookup the dead node owns; failover, whose client ejects a
// daemon after a few failures and suspects a slow one
// (cluster.Options.EjectAfter and SuspectAfter) and fast-fails to the
// server path; and R=2, the same detection over a replicated bank
// (Options.Replicas), whose reads fail over to the successor copy. The
// table shows per-interval mean read latency, bank hit rate and
// brick-daemon reads (the misses land on the brick, the load IMCa exists
// to absorb). The §4.4 invariant itself (no lost write, no stale read) is
// checked by the fault package's oracle tests; this figure measures the
// performance envelope.
func ExtFault(o Options) *Result {
	const (
		crashAt  = 30 * time.Millisecond
		rebootAt = 80 * time.Millisecond
		partAt   = 110 * time.Millisecond
		partHeal = 140 * time.Millisecond
		grayAt   = 170 * time.Millisecond
		grayHeal = 210 * time.Millisecond
		window   = 240 * time.Millisecond
		ejectK   = 3
		gray     = 20.0
		// Healthy single-key bank gets run ~100 µs end to end at this
		// block size (mostly wire time); a 20× service stretch pushes them
		// past 200 µs, so 150 µs separates the two cleanly.
		suspectAfter = 150 * time.Microsecond
	)
	plan := &fault.Plan{Name: "mcd0 node crash and reboot, partition, gray node", Events: []fault.Event{
		{At: crashAt, Kind: fault.LinkCut, Target: "client0", Peer: "mcd0"},
		{At: crashAt, Kind: fault.MCDCrash, Target: "mcd0"},
		{At: rebootAt, Kind: fault.LinkHeal, Target: "client0", Peer: "mcd0"},
		{At: rebootAt, Kind: fault.MCDRecover, Target: "mcd0"},
		{At: partAt, Kind: fault.Partition, Target: "client0", Peer: "mcd0"},
		{At: partHeal, Kind: fault.PartitionHeal, Target: "client0", Peer: "mcd0"},
		{At: grayAt, Kind: fault.GrayNode, Target: "mcd0", Factor: gray},
		{At: grayHeal, Kind: fault.GrayNode, Target: "mcd0", Factor: 1},
	}}
	detect := cluster.Options{EjectAfter: ejectK, SuspectAfter: suspectAfter}
	replicated := detect
	replicated.Replicas = 2
	names, copts := []string{"plain", "failover", "R=2"}, []cluster.Options{{}, detect, replicated}
	runs := points(o, len(names), func(i int) faulted { return faultedReads(o, copts[i], plan, window) })
	plain, failover, repl := runs[0], runs[1], runs[2]

	tb := metrics.NewTable(
		fmt.Sprintf("Ext: graceful degradation — mcd0 node crash %v–%v, partition %v–%v, gray node ×%g %v–%v (%s blocks)",
			crashAt, rebootAt, partAt, partHeal, gray, grayAt, grayHeal, fmtSize(faultRecSize)),
		"virtual time", "value",
		"latency µs (plain)", "latency µs (failover)", "latency µs (R=2)",
		"bank hit rate (plain)", "bank hit rate (failover)", "bank hit rate (R=2)",
		"brick reads (plain)", "brick reads (failover)", "brick reads (R=2)")
	rows := min(len(plain.times), len(failover.times), len(repl.times))
	for i := range rows {
		tb.AddRow(plain.times[i].String(),
			plain.latUs[i], failover.latUs[i], repl.latUs[i],
			plain.hitRate[i], failover.hitRate[i], repl.hitRate[i],
			plain.brick[i], failover.brick[i], repl.brick[i])
	}

	res := &Result{Name: "ext-fault", Table: tb}
	// during keeps the values of s whose interval ends inside one of the
	// windows. Every column samples at the same instants.
	during := func(s []float64, windows ...[2]sim.Duration) []float64 {
		var out []float64
		for i, at := range plain.times[:rows] {
			for _, w := range windows {
				if at > w[0] && at <= w[1] {
					out = append(out, s[i])
				}
			}
		}
		return out
	}
	sum := func(s []float64) (total float64) {
		for _, v := range s {
			total += v
		}
		return total
	}
	crash := [2]sim.Duration{crashAt, rebootAt}
	faults := [][2]sim.Duration{crash, {partAt, partHeal}, {grayAt, grayHeal}}
	res.order("before the first fault all three clients behave alike",
		plain.latUs[0] == failover.latUs[0] && failover.latUs[0] == repl.latUs[0],
		"first interval: plain %.0f µs, failover %.0f µs, R=2 %.0f µs", plain.latUs[0], failover.latUs[0], repl.latUs[0])
	pp, pf := slices.Max(during(plain.latUs, crash)), slices.Max(during(failover.latUs, crash))
	res.order("a dead cache node costs a client only the way to the file system directly (§4.4)", pp > pf,
		"peak interval latency while the node is down: plain %.0f µs vs failover %.0f µs (%.1f× improvement)", pp, pf, pp/pf)
	fb := failover.bank
	res.order("the failover client ejects the dead daemon and readmits it after the reboot", fb.Ejects > 0 && fb.Readmits > 0,
		"failover client: %d ejects, %d fast-fails, %d probes, %d readmits; plain client: %d unreachable calls",
		fb.Ejects, fb.FastFails, fb.Probes, fb.Readmits, plain.bank.Unreachables)
	rp, rf := sum(during(plain.reads, crash)), sum(during(failover.reads, crash))
	res.order("failover completes more reads through the outage", rf > rp,
		"reads completed while the node is down: plain %.0f, failover %.0f", rp, rf)
	hitf, hitr := during(failover.hitRate, faults...), during(repl.hitRate, faults...)
	hf, hr := sum(hitf)/float64(len(hitf)), sum(hitr)/float64(len(hitr))
	res.order("a second copy keeps the bank answering through the faults", hr > hf,
		"bank hit rate inside the fault windows: failover %.3f vs R=2 %.3f", hf, hr)
	bf, br := sum(failover.brick), sum(repl.brick)
	res.order("the replicated bank sheds less load to the brick", br < bf,
		"brick daemon absorbed %.0f reads under failover vs %.0f under R=2 over the %v window", bf, br, window)
	rb := repl.bank
	res.order("reads fail over to the copy, and suspicion catches the gray node", rb.Failovers > 0 && rb.Suspects > 0,
		"R=2 client: %d failovers, %d suspects, %d suspect clears, %d ejects; failover client: %d ejects, %d suspects",
		rb.Failovers, rb.Suspects, rb.SuspectClears, rb.Ejects, fb.Ejects, fb.Suspects)
	res.order("the replicated client completes more reads", sum(repl.reads) > sum(failover.reads),
		"reads completed in the %v window: plain %.0f, failover %.0f, R=2 %.0f", window, sum(plain.reads), sum(failover.reads), sum(repl.reads))
	if o.Observe {
		for i, f := range runs {
			f.attach(res, "ext-fault "+names[i])
		}
	}
	return res
}

// faulted is one finished column of ext-fault.
type faulted struct {
	smp     *telemetry.Sampler // stopped
	start   sim.Time           // when the window opened
	times   []sim.Duration     // sample instants, relative to start
	reads   []float64          // per-interval reads completed
	latUs   []float64          // per-interval mean read latency (µs)
	hitRate []float64          // per-interval bank hit rate
	brick   []float64          // per-interval brick-daemon reads
	bank    memcache.Stats

	// The observation surfaces, filled under Options.Observe.
	dump, flight string
}

// faultedReads runs one column of ext-fault. It deploys one client over two
// 64 MB MCDs with 2 KB blocks (copts carries the detection and replication
// settings under test), instruments the deployment, writes one 128 KB file
// in 2 KB records and reads it once to warm the bank, then arms plan and
// has one process read the next record and stat the file until window
// closes, sampling the registry every 5 ms. The stat keeps single-key bank
// traffic flowing, which is what feeds the latency-suspicion EWMA (an
// open/stat mix is also what real clients issue).
func faultedReads(o Options, copts cluster.Options, plan *fault.Plan, window sim.Duration) faulted {
	copts.MCDs, copts.MCDMemBytes, copts.BlockSize = 2, 64<<20, faultRecSize
	c := glusterSys("ext-fault", copts).deploy(o, 1).cluster
	env, fs := c.Env, c.Mounts[0].FS
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	var reads, busyNs uint64
	reg.Counter("reader.ops", func() uint64 { return reads })
	reg.Counter("reader.busy_ns", func() uint64 { return busyNs })
	check := func(what string, err error) {
		if err != nil {
			panic(fmt.Sprintf("ext-fault: %s: %v", what, err))
		}
	}

	// Produce the dataset and warm the bank (one full pass), untimed.
	var fd gluster.FD
	env.Process("ext-fault-warm", func(p *sim.Proc) {
		fd = writeFile(p, fs, "ext-fault", faultPath, faultFileSize, faultRecSize)
		for off := int64(0); off < faultFileSize; off += faultRecSize {
			_, err := fs.Read(p, fd, off, faultRecSize)
			check("warm read", err)
		}
	})
	env.Run()

	// Measurement: arm the plan relative to now and iterate until the
	// window closes, sampling each interval.
	start := env.Now()
	in := fault.NewInjector(c)
	in.Register(reg, "fault")
	var fr *flight.Recorder
	if o.Observe {
		fr = flight.New(4096)
		c.SetFlight(fr)
		in.SetFlight(fr)
	}
	check("arm", in.Arm(plan))
	smp := telemetry.NewSampler(env, reg, faultInterval)
	env.Process("ext-fault-read", func(p *sim.Proc) {
		for off := int64(0); p.Now() < start.Add(window); off = (off + faultRecSize) % faultFileSize {
			t0 := p.Now()
			_, err := fs.Read(p, fd, off, faultRecSize)
			check("read", err)
			busyNs += uint64(p.Now().Sub(t0))
			_, err = fs.Stat(p, faultPath)
			check("stat", err)
			reads++
		}
	})
	env.Run()
	smp.Stop()

	f := faulted{smp: smp, start: start, bank: c.BankStats(), reads: delta(smp.Series("reader.ops")),
		hitRate: ratio(delta(smp.Series("bank.hits")), delta(smp.Series("bank.gets"))),
		brick:   delta(smp.Series("brick0.server.ops.read"))}
	f.latUs = ratio(delta(smp.Series("reader.busy_ns")), f.reads)
	for i := range f.latUs {
		f.latUs[i] /= 1e3
	}
	for _, at := range smp.Times() {
		f.times = append(f.times, at.Sub(start))
	}
	if o.Observe {
		f.dump, f.flight = textOf(reg.Dump), textOf(fr.Dump)
	}
	return f
}

// attach adds the column's observation surfaces to res, titled by run
// ("ext-fault plain"). The counter tracks carry the title too, so the
// columns' tracks, and other figures' tracks of the same instruments, stay
// apart in one trace.
func (f faulted) attach(res *Result, run string) {
	res.Telemetry = append(res.Telemetry, NamedDump{Title: run + " final counters", Text: f.dump})
	res.Timelines = append(res.Timelines, timelineFrom(f.smp, f.start, run+": client0.fuse.read_lat", "client0.fuse.read_lat"))
	res.Flight = append(res.Flight, NamedDump{Title: run + " flight recorder", Text: f.flight})
	for _, tr := range f.smp.CounterTracks("bank.hit_rate", "client0.fuse.read_lat") {
		tr.Name = run + ": " + tr.Name
		res.Tracks = append(res.Tracks, tr)
	}
}

// ratio returns num/den elementwise, 0 where den is 0.
func ratio(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		if den[i] > 0 {
			out[i] = num[i] / den[i]
		}
	}
	return out
}
