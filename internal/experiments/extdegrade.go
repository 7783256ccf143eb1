package experiments

import (
	"fmt"
	"time"

	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/sim"
)

// ExtDegrade measures how R=2 replication changes the degradation envelope
// under three failure shapes the expanded fault vocabulary models: a clean
// MCD crash (daemon dies, restarts empty), a fabric partition (the client
// loses the link, calls hang until the connect timeout), and a gray node
// (the daemon answers correctly but Factor× slower, so error-counting
// ejection never fires and only latency-based suspicion catches it). One
// client re-reads a warmed dataset while mcd0 suffers each fault in turn;
// the same timeline runs with an unreplicated bank (the failed daemon's
// share of keys is simply gone or slow) and with Options.Replicas = 2
// (reads fail over to the successor copy, so the bank keeps answering).
// Both runs use the same ejection and suspicion settings — the comparison
// isolates replication, not detection. The table reports per-interval
// read p99, bank hit rate, and brick-daemon read load (the misses land on
// the brick, which is exactly the load IMCa exists to absorb).
func ExtDegrade(o Options) *Result {
	const (
		// Three fault windows on one timeline, each healed before the next.
		crashAt    = 30 * time.Millisecond
		crashHeal  = 60 * time.Millisecond
		partAt     = 100 * time.Millisecond
		partHeal   = 130 * time.Millisecond
		grayAt     = 170 * time.Millisecond
		grayHeal   = 210 * time.Millisecond
		window     = 240 * time.Millisecond
		ejectK     = 3
		grayFactor = 20.0
		// Healthy single-key bank gets run ~100 µs end to end at this
		// block size (mostly wire time); a 20× service stretch pushes them
		// past 200 µs, so 150 µs separates the two cleanly.
		suspectAfter = 150 * time.Microsecond
		path         = "/degrade/f0"
	)

	type point struct {
		faulted
		p99Us     []float64 // per-interval fuse read p99 (µs)
		brickRate []float64 // per-interval brick-daemon reads
	}
	run := func(name string, replicas int) point {
		plan := &fault.Plan{Name: "mcd0 crash, partition, gray", Events: []fault.Event{
			{At: crashAt, Kind: fault.MCDCrash, Target: "mcd0"},
			{At: crashHeal, Kind: fault.MCDRecover, Target: "mcd0"},
			{At: partAt, Kind: fault.Partition, Target: "client0", Peer: "mcd0"},
			{At: partHeal, Kind: fault.PartitionHeal, Target: "client0", Peer: "mcd0"},
			{At: grayAt, Kind: fault.GrayNode, Target: "mcd0", Factor: grayFactor},
			{At: grayHeal, Kind: fault.GrayNode, Target: "mcd0", Factor: 1},
		}}
		copts := cluster.Options{EjectAfter: ejectK, SuspectAfter: suspectAfter, Replicas: replicas}
		f := faultedReads(o, "ext-degrade", name, path, copts, plan, window, nil,
			func(p *sim.Proc, fs gluster.FS, fd gluster.FD, off int64) {
				if _, err := fs.Read(p, fd, off, faultRecSize); err != nil {
					panic(fmt.Sprintf("ext-degrade: read: %v", err))
				}
				// The stat keeps single-key bank traffic flowing, which is
				// what feeds the latency-suspicion EWMA (an open/stat mix is
				// also what real clients issue).
				if _, err := fs.Stat(p, path); err != nil {
					panic(fmt.Sprintf("ext-degrade: stat: %v", err))
				}
			})
		return point{faulted: f,
			p99Us:     f.smp.QuantileSeries("client0.fuse.read_lat", 0.99),
			brickRate: delta(f.smp.Series("brick0.server.ops.read"))}
	}

	names, replicas := []string{"single-copy", "replicated"}, []int{0, 2}
	pts := points(o, 2, func(i int) point { return run(names[i], replicas[i]) })
	single, repl := pts[0], pts[1]

	rows := min(len(single.times), len(repl.times))
	tb := metrics.NewTable(
		fmt.Sprintf("Ext: replicated bank through crash (%v), partition (%v), gray node ×%g (%v) on mcd0",
			crashAt, partAt, grayFactor, grayAt),
		"virtual time", "value",
		"read p99 µs (R=1)", "read p99 µs (R=2)",
		"bank hit rate (R=1)", "bank hit rate (R=2)",
		"brick reads (R=1)", "brick reads (R=2)")
	for i := 0; i < rows; i++ {
		tb.AddRow(single.times[i].String(),
			single.p99Us[i], repl.p99Us[i],
			single.hitRate[i], repl.hitRate[i],
			single.brickRate[i], repl.brickRate[i])
	}

	res := &Result{Name: "ext-degrade", Table: tb}
	// Mean hit rate inside the fault windows is the headline: the
	// replicated bank keeps serving its share while the single-copy bank
	// sheds every mcd0 key to the brick.
	faultWindow := func(p point) (rate float64) {
		var sum float64
		var n int
		for i, at := range p.times {
			in := (at > crashAt && at <= crashHeal) ||
				(at > partAt && at <= partHeal) ||
				(at > grayAt && at <= grayHeal)
			if in && i < len(p.hitRate) {
				sum += p.hitRate[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	brickTotal := func(p point) (total float64) {
		for _, v := range p.brickRate {
			total += v
		}
		return total
	}
	res.order("before the first fault both banks behave alike", single.p99Us[0] == repl.p99Us[0],
		"first interval read p99: R=1 %.0f µs, R=2 %.0f µs", single.p99Us[0], repl.p99Us[0])
	res.order("a second copy keeps the bank answering through the faults", faultWindow(repl) > faultWindow(single),
		"bank hit rate inside the fault windows: single-copy %.3f vs replicated %.3f", faultWindow(single), faultWindow(repl))
	res.order("the replicated bank sheds less load to the brick", brickTotal(repl) < brickTotal(single),
		"brick daemon absorbed %.0f reads single-copy vs %.0f replicated over the %v window", brickTotal(single), brickTotal(repl), window)
	rb := repl.bank
	res.order("reads fail over to the copy, and suspicion catches the gray node", rb.Failovers > 0 && rb.Suspects > 0,
		"replicated client: %d failovers, %d suspects, %d suspect clears, %d ejects; single-copy client: %d ejects, %d suspects",
		rb.Failovers, rb.Suspects, rb.SuspectClears, rb.Ejects, single.bank.Ejects, single.bank.Suspects)
	res.order("the replicated client completes more reads", repl.reads > single.reads,
		"reads completed in the window: single-copy %d, replicated %d", single.reads, repl.reads)
	if o.Observe {
		single.attach(res, "ext-degrade single-copy", false)
		repl.attach(res, "ext-degrade replicated", true)
	}
	return res
}
