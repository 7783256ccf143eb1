package experiments

import (
	"fmt"
	"slices"
	"time"

	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// ExtFault measures graceful degradation through a cache-node crash
// (§4.4): one client re-reads a warmed dataset while the node carrying
// mcd0 crashes mid-run and reboots later — injected as a simultaneous
// client↔mcd0 link cut (the node stops answering, so lookups hang until
// the connect timeout) plus an MCD crash (the daemon restarts empty), both
// healed at the recovery instant. The same timeline runs twice: with the
// paper's plain client, which keeps paying the connect timeout on every
// lookup for the whole outage, and with client-side failover
// (cluster.Options.EjectAfter), which ejects the dead daemon after a few
// failures and fast-fails to the server path instead. The table shows
// per-interval read latency and bank hit rate for both clients; the §4.4
// invariant itself (no lost write, no stale read) is checked continuously
// by the fault package's oracle tests, so this experiment focuses on the
// performance envelope.
func ExtFault(o Options) *Result {
	const (
		crashAt   = 30 * time.Millisecond
		recoverAt = 80 * time.Millisecond
		window    = 120 * time.Millisecond
		ejectK    = 3
	)

	type point struct {
		faulted
		latUs []float64 // per-interval mean read latency (µs)
	}
	run := func(name string, ejectAfter int) point {
		plan := &fault.Plan{Name: "mcd0 node crash and reboot", Events: []fault.Event{
			{At: crashAt, Kind: fault.LinkCut, Target: "client0", Peer: "mcd0"},
			{At: crashAt, Kind: fault.MCDCrash, Target: "mcd0"},
			{At: recoverAt, Kind: fault.LinkHeal, Target: "client0", Peer: "mcd0"},
			{At: recoverAt, Kind: fault.MCDRecover, Target: "mcd0"},
		}}
		var busyNs uint64
		f := faultedReads(o, "ext-fault", name, "/fault/f0", cluster.Options{EjectAfter: ejectAfter}, plan, window,
			func(reg *telemetry.Registry) { reg.Counter("reader.busy_ns", func() uint64 { return busyNs }) },
			func(p *sim.Proc, fs gluster.FS, fd gluster.FD, off int64) {
				t0 := p.Now()
				if _, err := fs.Read(p, fd, off, faultRecSize); err != nil {
					panic(fmt.Sprintf("ext-fault: read: %v", err))
				}
				busyNs += uint64(p.Now().Sub(t0))
			})
		pt := point{faulted: f, latUs: ratio(delta(f.smp.Series("reader.busy_ns")), delta(f.smp.Series("reader.ops")))}
		for i := range pt.latUs {
			pt.latUs[i] /= 1e3
		}
		return pt
	}

	names, ejects := []string{"plain", "failover"}, []int{0, ejectK}
	pts := points(o, 2, func(i int) point { return run(names[i], ejects[i]) })
	plain, failover := pts[0], pts[1]

	rows := min(len(plain.times), len(failover.times))
	tb := metrics.NewTable(
		fmt.Sprintf("Ext: graceful degradation — mcd0 node crash at %v, reboot at %v (%s blocks, eject after %d failures)",
			crashAt, recoverAt, fmtSize(faultRecSize), ejectK),
		"virtual time", "value",
		"latency µs (plain)", "latency µs (failover)", "bank hit rate (plain)", "bank hit rate (failover)")
	for i := 0; i < rows; i++ {
		tb.AddRow(plain.times[i].String(), plain.latUs[i], failover.latUs[i], plain.hitRate[i], failover.hitRate[i])
	}

	res := &Result{Name: "ext-fault", Table: tb}
	pp, pf := slices.Max(plain.latUs), slices.Max(failover.latUs)
	res.order("before the crash both clients behave alike", plain.latUs[0] == failover.latUs[0],
		"first interval: plain %.0f µs, failover %.0f µs", plain.latUs[0], failover.latUs[0])
	res.order("a dead cache node costs a client only the way to the file system directly (§4.4)", pp > pf,
		"peak interval latency during the outage: plain %.0f µs vs failover %.0f µs (%.1f× improvement)", pp, pf, pp/pf)
	fb := failover.bank
	res.order("the failover client ejects the dead daemon and readmits it after the reboot", fb.Ejects > 0 && fb.Readmits > 0,
		"failover client: %d ejects, %d fast-fails, %d probes, %d readmits; plain client: %d unreachable calls",
		fb.Ejects, fb.FastFails, fb.Probes, fb.Readmits, plain.bank.Unreachables)
	res.order("failover completes more reads through the outage", failover.reads > plain.reads,
		"reads completed in the %v window: plain %d, failover %d", window, plain.reads, failover.reads)
	if o.Observe {
		plain.attach(res, "ext-fault plain client", false)
		failover.attach(res, "ext-fault failover client", true)
	}
	return res
}
