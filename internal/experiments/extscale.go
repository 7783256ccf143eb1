package experiments

import (
	"fmt"
	"slices"
	"time"

	"imca/internal/cluster"
	"imca/internal/metrics"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// ExtScale pushes the simulator far past the paper's 64-node testbed: ten
// thousand open-loop tenants — heap-scheduled tasks, not goroutines —
// offer Zipf-skewed reads to an IMCa deployment at three arrival rates,
// and the table reports the latency tail (p50/p95/p99 sampled on the
// telemetry tick), the MCD-bank hit rate, and how unevenly the hot keys
// land across the bank. Closed-loop clients cannot produce this figure:
// their load self-throttles when the system slows, hiding exactly the
// queueing the tail quantiles are meant to expose.
func ExtScale(o Options) *Result {
	const (
		tenants  = 10000
		mounts   = 16
		files    = 256
		fileSize = int64(4096)
		mcds     = 4
		baseMean = 10 * time.Millisecond
		interval = 5 * time.Millisecond
	)
	// Arrivals per tenant shrink with scale like the record counts do, so
	// smoke tests stay cheap while documented runs see a longer stream.
	arrivals := o.sized().arrivals

	type cell struct {
		label              string
		p50, p95, p99      float64
		hitRate, skew, top float64
		issued, completed  uint64
		timeline           Timeline
	}
	rates := []struct {
		label string
		mul   int64 // divides the base mean interarrival
	}{{"0.5x", 1}, {"1x", 2}, {"2x", 4}}

	cells := points(o, len(rates), func(i int) cell {
		c := glusterSys("ext-scale", cluster.Options{
			MCDs: mcds, MCDMemBytes: o.sized().mcd, BlockSize: fileSize,
		}).deploy(o, mounts).cluster
		reg := telemetry.NewRegistry()
		c.Instrument(reg)

		run := workload.PrepareOpenLoop(c.Env, c.FSes(), workload.OpenLoopOptions{
			Dir:               "/scale",
			Files:             files,
			FileSize:          fileSize,
			Tenants:           tenants,
			ArrivalsPerTenant: arrivals,
			MeanInterarrival:  baseMean * 2 / time.Duration(rates[i].mul),
			Seed:              42,
		})
		// The workload observes its completions into a registered hist, so
		// the sampler snapshots its buckets every interval (giving the
		// per-interval percentile timeline), and the row reports the
		// run-total quantiles.
		start := c.Env.Now()
		run.Latency = reg.Hist("openloop.lat")
		smp := telemetry.NewSampler(c.Env, reg, interval)
		run.Run()
		smp.Sample(c.Env.Now())
		smp.Stop()

		bank := c.BankStats()
		hitRate := 0.0
		if bank.CmdGet > 0 {
			hitRate = float64(bank.GetHits) / float64(bank.CmdGet)
		}

		// Per-bank skew: hottest daemon's hit count over the bank mean.
		// Zipf keys hash whole files to daemons, so the hot head of the
		// popularity curve piles onto whichever daemons own it.
		var maxHits, sumHits uint64
		for _, s := range c.MCDs {
			h := s.Store().Stats().GetHits
			sumHits += h
			maxHits = max(maxHits, h)
		}
		skew := 0.0
		if sumHits > 0 {
			skew = float64(maxHits) / (float64(sumHits) / float64(mcds))
		}
		topKey := slices.Max(run.KeyReads)
		cl := cell{
			label:     rates[i].label,
			p50:       usPerOp(run.Latency.Quantile(0.50)),
			p95:       usPerOp(run.Latency.Quantile(0.95)),
			p99:       usPerOp(run.Latency.Quantile(0.99)),
			hitRate:   hitRate,
			skew:      skew,
			top:       float64(topKey) / float64(run.Issued),
			issued:    run.Issued,
			completed: run.Completed,
		}
		if o.Observe {
			cl.timeline = timelineFrom(smp, start,
				"ext-scale "+rates[i].label+": openloop.lat", "openloop.lat")
		}
		return cl
	})

	tb := metrics.NewTable(
		fmt.Sprintf("Ext: open-loop tail latency at %d tenants — %d mounts, %d MCDs, Zipf(1.0) over %d files",
			tenants, mounts, mcds, files),
		"offered rate", "value",
		"p50 µs", "p95 µs", "p99 µs", "bank hit rate", "bank skew")
	for _, c := range cells {
		tb.AddRow(c.label, c.p50, c.p95, c.p99, c.hitRate, c.skew)
	}

	res := &Result{Name: "ext-scale", Table: tb}
	last := cells[len(cells)-1]
	complete, tail, falling, skewed := true, true, true, true
	for i, c := range cells {
		complete = complete && c.issued == uint64(tenants*arrivals) && c.completed == c.issued
		tail = tail && 0 < c.p50 && c.p50 <= c.p95 && c.p95 <= c.p99 && (i == 0 || c.p50 > cells[i-1].p50)
		falling = falling && 0 < c.hitRate && c.hitRate <= 1 && (i == 0 || c.hitRate < cells[i-1].hitRate)
		skewed = skewed && c.skew > 1
	}
	res.order("an open loop offers every arrival whatever the service time, and each completes", complete,
		"%d tenants × %d arrivals per rate: %d issued, %d completed at 2x", tenants, arrivals, last.issued, last.completed)
	res.order("offered load past capacity grows the tail instead of throttling the generator", tail,
		"p50 grows with the offered rate, %.0f -> %.0f µs, and p50 ≤ p95 ≤ p99 at every rate", cells[0].p50, last.p50)
	res.order("the bank hit rate falls as concurrent misses outrun SMCache's pushes", falling,
		"bank hit rate %.3f at 0.5x -> %.3f at 2x", cells[0].hitRate, last.hitRate)
	res.order("uniform key distribution does not make traffic uniform", skewed,
		"hottest file drew %.1f%% of arrivals; hottest daemon served %.2fx the bank mean at 2x", last.top*100, last.skew)
	if o.Observe {
		// Rebuilding the dump here would need the last cell's registry;
		// report the bank totals instead, which is what the figure is
		// about.
		res.Telemetry = append(res.Telemetry, NamedDump{Title: "ext-scale summary", Text: fmt.Sprintf(
			"bank.get_hits_skew %.3f\nopenloop.issued %d\nopenloop.completed %d\n",
			last.skew, last.issued, last.completed)})
		for _, c := range cells {
			res.Timelines = append(res.Timelines, c.timeline)
		}
	}
	return res
}
