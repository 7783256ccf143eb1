package experiments

import (
	"fmt"

	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// latencyRun executes the single/multi-client latency benchmark on a fresh
// GlusterFS/IMCa deployment and returns the per-record-size averages. With
// trace set every measured operation is traced and the result carries
// per-layer breakdowns; with a registry the deployment is instrumented on
// it as well and the traced operations are retained for export. Neither
// costs virtual time, so the latencies are the same either way.
func latencyRun(o Options, opts cluster.Options, sizes []int64, trace bool, reg *telemetry.Registry) workload.LatencyResult {
	c, mounts := glusterMounts(gOpts(o, opts))
	if reg != nil {
		c.Instrument(reg)
	}
	return workload.Latency(c.Env, mounts, workload.LatencyOptions{
		Dir:         "/lat",
		RecordSizes: sizes,
		Records:     o.records(),
		Trace:       trace,
		KeepOps:     reg != nil,
	})
}

// breakdownSet titles one per-record-size breakdown map for display.
func breakdownSet(prefix string, sizes []int64, m map[int64]*optrace.Breakdown) []NamedBreakdown {
	var out []NamedBreakdown
	for _, r := range sizes {
		if b := m[r]; b != nil && b.Count() > 0 {
			out = append(out, NamedBreakdown{fmt.Sprintf("%s, %s records", prefix, fmtSize(r)), b})
		}
	}
	return out
}

// latencyRunOn drives an already-deployed cluster (so callers can inspect
// its stats afterwards).
func latencyRunOn(o Options, c *cluster.Cluster, mounts []gluster.FS, sizes []int64) workload.LatencyResult {
	return workload.Latency(c.Env, mounts, workload.LatencyOptions{
		Dir:         "/lat",
		RecordSizes: sizes,
		Records:     o.records(),
	})
}

// lustreLatencyRun executes the benchmark on Lustre. cold drops every
// client cache between the stages and before each record size.
func lustreLatencyRun(o Options, clients, osts int, sizes []int64, cold bool) workload.LatencyResult {
	env, _, mounts, lclients := lustreMounts(clients, osts, o.scale())
	lopts := workload.LatencyOptions{
		Dir:         "/lat",
		RecordSizes: sizes,
		Records:     o.records(),
	}
	if cold {
		lopts.AfterWrite = dropAll(lclients)
		lopts.BeforeReadSize = func(int64) { dropAll(lclients)() }
	}
	return workload.Latency(env, mounts, lopts)
}

// fig6Read builds the read-latency table for the given record-size window.
func fig6Read(o Options, name, title string, sizes []int64) *Result {
	mcdMem := o.mcdMemForLatency()

	// Seven independent deployments, one per table column. Under Observe
	// the NoCache and IMCa-2K columns are traced, and IMCa-2K is also
	// instrumented on its own registry, dumped once the points are back so
	// nothing is written from inside a worker.
	var reg *telemetry.Registry
	if o.Observe {
		reg = telemetry.NewRegistry()
	}
	imca := func(blockSize int64, trace bool, reg *telemetry.Registry) func() workload.LatencyResult {
		opts := cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: mcdMem, BlockSize: blockSize}
		return func() workload.LatencyResult { return latencyRun(o, opts, sizes, trace, reg) }
	}
	outs := runAll(o, []func() workload.LatencyResult{
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: 1}, sizes, o.Observe, nil)
		},
		imca(256, false, nil),
		imca(2048, o.Observe, reg),
		imca(8192, false, nil),
		func() workload.LatencyResult { return lustreLatencyRun(o, 1, 1, sizes, true) },
		func() workload.LatencyResult { return lustreLatencyRun(o, 1, 4, sizes, true) },
		func() workload.LatencyResult { return lustreLatencyRun(o, 1, 4, sizes, false) },
	})
	noCache, imca256, imca2k, imca8k := outs[0], outs[1], outs[2], outs[3]
	lus1Cold, lus4Cold, lus4Warm := outs[4], outs[5], outs[6]

	tb := metrics.NewTable(title, "record size", "read latency (µs/op)",
		"NoCache", "IMCa-256", "IMCa-2K", "IMCa-8K",
		"Lustre-1DS(Cold)", "Lustre-4DS(Cold)", "Lustre-4DS(Warm)")
	for _, r := range sizes {
		tb.AddRow(fmtSize(r),
			usPerOp(noCache.Read[r]), usPerOp(imca256.Read[r]),
			usPerOp(imca2k.Read[r]), usPerOp(imca8k.Read[r]),
			usPerOp(lus1Cold.Read[r]), usPerOp(lus4Cold.Read[r]), usPerOp(lus4Warm.Read[r]))
	}
	res := &Result{Name: name, Table: tb, Ops: imca2k.Ops}
	if o.Observe {
		res.Telemetry = []NamedDump{{Title: "IMCa-2K final counters (" + name + ")", Text: textOf(reg.Dump)}}
		res.Breakdowns = append(res.Breakdowns,
			breakdownSet("IMCa-2K read", sizes, imca2k.ReadBreakdowns)...)
		res.Breakdowns = append(res.Breakdowns,
			breakdownSet("NoCache read", sizes, noCache.ReadBreakdowns)...)
	}
	return res
}

// Fig6a is the small-record read latency sweep (1 B – 2 KB): IMCa wins at
// small records, with smaller blocks winning bigger margins (paper: 59% /
// 45% / 31% cuts at 1 byte for 256 B / 2 KB / 8 KB blocks).
func Fig6a(o Options) *Result {
	res := fig6Read(o, "fig6a", "Fig 6(a): single-client read latency, small records", powersOfTwo(1, 2048))
	first := func(col string) float64 { return res.Table.Value(0, col) }
	res.Notes = []string{
		note("1-byte read: IMCa-256 cuts %.0f%% vs NoCache (paper: 59%%)",
			100*metrics.Reduction(first("NoCache"), first("IMCa-256"))),
		note("1-byte read: IMCa-2K cuts %.0f%% vs NoCache (paper: 45%%)",
			100*metrics.Reduction(first("NoCache"), first("IMCa-2K"))),
		note("1-byte read: IMCa-8K cuts %.0f%% vs NoCache (paper: 31%%)",
			100*metrics.Reduction(first("NoCache"), first("IMCa-8K"))),
		note("Lustre-4DS(Warm) lowest at small records: %v",
			first("Lustre-4DS(Warm)") < first("IMCa-256")),
	}
	return res
}

// Fig6b is the large-record window (4 KB – 128 KB): NoCache overtakes the
// 256-byte-block configuration and eventually all IMCa block sizes.
func Fig6b(o Options) *Result {
	res := fig6Read(o, "fig6b", "Fig 6(b): single-client read latency, large records", powersOfTwo(4096, 131072))
	lastIdx := res.Table.Rows() - 1
	last := func(col string) float64 { return res.Table.Value(lastIdx, col) }
	res.Notes = []string{
		note("at %s records NoCache beats IMCa-256: %v (paper: NoCache lowest overall at large records)",
			res.Table.X(lastIdx), last("NoCache") < last("IMCa-256")),
		note("at %s records NoCache vs IMCa-2K: %.0f vs %.0f µs",
			res.Table.X(lastIdx), last("NoCache"), last("IMCa-2K")),
	}
	return res
}

// Fig6c is the write-latency comparison: the inline SMCache update puts a
// read-back on the critical path (worse than NoCache); the threaded update
// removes it (paper: threaded ≈ NoCache).
func Fig6c(o Options) *Result {
	mcdMem := o.mcdMemForLatency()
	sizes := []int64{1, 16, 256, 2048, 8192, 65536}

	outs := runAll(o, []func() workload.LatencyResult{
		func() workload.LatencyResult { return latencyRun(o, cluster.Options{Clients: 1}, sizes, false, nil) },
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: mcdMem, BlockSize: 2048}, sizes, o.Observe, nil)
		},
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: mcdMem, BlockSize: 2048, Threaded: true}, sizes, o.Observe, nil)
		},
	})
	noCache, inline, threaded := outs[0], outs[1], outs[2]

	tb := metrics.NewTable("Fig 6(c): single-client write latency, IMCa block 2K",
		"record size", "write latency (µs/op)",
		"NoCache", "IMCa(inline)", "IMCa(threaded)")
	for _, r := range sizes {
		tb.AddRow(fmtSize(r),
			usPerOp(noCache.Write[r]), usPerOp(inline.Write[r]), usPerOp(threaded.Write[r]))
	}
	mid := 3 // 2K row
	res := &Result{Name: "fig6c", Table: tb}
	res.Notes = []string{
		note("2K writes: inline %.0f µs vs NoCache %.0f µs (paper: inline worse — extra read + MCD update)",
			tb.Value(mid, "IMCa(inline)"), tb.Value(mid, "NoCache")),
		note("2K writes: threaded %.0f µs vs NoCache %.0f µs (paper: threaded ≈ NoCache)",
			tb.Value(mid, "IMCa(threaded)"), tb.Value(mid, "NoCache")),
	}
	if o.Observe {
		res.Breakdowns = append(res.Breakdowns,
			breakdownSet("IMCa(inline) write", sizes, inline.WriteBreakdowns)...)
		res.Breakdowns = append(res.Breakdowns,
			breakdownSet("IMCa(threaded) write", sizes, threaded.WriteBreakdowns)...)
	}
	return res
}
