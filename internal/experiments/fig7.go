package experiments

import (
	"imca/internal/cluster"
	"imca/internal/metrics"
	"imca/internal/workload"
)

// Fig7a reproduces the 32-client read-latency sweep for small records
// (1–128 bytes) with 1, 2, and 4 MCDs, against GlusterFS NoCache and
// Lustre-4DS cold/warm. The paper's headlines: 82% latency cut at 1 byte
// with 4 MCDs; Lustre cold is ahead below 32 bytes, IMCa-4MCD after.
func Fig7a(o Options) *Result {
	res := fig7(o, "fig7a", "Fig 7(a): 32-client read latency, small records", powersOfTwo(1, 128))
	first := func(col string) float64 { return res.Table.Value(0, col) }
	res.Notes = []string{
		note("1-byte read: 4 MCDs cut %.0f%% vs NoCache (paper: 82%%)",
			100*metrics.Reduction(first("NoCache"), first("IMCa(4MCD)"))),
		note("1-byte read: Lustre(Cold) %.0f µs vs IMCa(4MCD) %.0f µs (paper: Lustre ahead below 32 B)",
			first("Lustre-4DS(Cold)"), first("IMCa(4MCD)")),
	}
	return res
}

// Fig7b is the medium-record window (512 B – 64 KB); the paper reports
// IMCa(4MCD) overtaking Lustre cold past 32 bytes and approaching — then
// beating — Lustre warm by 64 KB.
func Fig7b(o Options) *Result {
	res := fig7(o, "fig7b", "Fig 7(b): 32-client read latency, medium records", powersOfTwo(512, 65536))
	lastIdx := res.Table.Rows() - 1
	last := func(col string) float64 { return res.Table.Value(lastIdx, col) }
	res.Notes = []string{
		note("at %s records: IMCa(4MCD) %.0f µs vs Lustre(Cold) %.0f µs",
			res.Table.X(lastIdx), last("IMCa(4MCD)"), last("Lustre-4DS(Cold)")),
		note("at %s records: IMCa(4MCD) %.0f µs vs Lustre(Warm) %.0f µs (paper: IMCa lower at 64K)",
			res.Table.X(lastIdx), last("IMCa(4MCD)"), last("Lustre-4DS(Warm)")),
	}
	return res
}

func fig7(o Options, name, title string, sizes []int64) *Result {
	const clients = 32
	mcdMem := o.mcdMemForLatency()

	outs := runAll(o, []func() workload.LatencyResult{
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: clients}, sizes, false, nil)
		},
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: clients, MCDs: 1, MCDMemBytes: mcdMem}, sizes, false, nil)
		},
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: clients, MCDs: 2, MCDMemBytes: mcdMem}, sizes, false, nil)
		},
		func() workload.LatencyResult {
			return latencyRun(o, cluster.Options{Clients: clients, MCDs: 4, MCDMemBytes: mcdMem}, sizes, false, nil)
		},
		func() workload.LatencyResult { return lustreLatencyRun(o, clients, 4, sizes, true) },
		func() workload.LatencyResult { return lustreLatencyRun(o, clients, 4, sizes, false) },
	})
	noCache, imca1, imca2, imca4, lusCold, lusWarm := outs[0], outs[1], outs[2], outs[3], outs[4], outs[5]

	tb := metrics.NewTable(title, "record size", "read latency (µs/op)",
		"NoCache", "IMCa(1MCD)", "IMCa(2MCD)", "IMCa(4MCD)",
		"Lustre-4DS(Cold)", "Lustre-4DS(Warm)")
	for _, r := range sizes {
		tb.AddRow(fmtSize(r),
			usPerOp(noCache.Read[r]), usPerOp(imca1.Read[r]),
			usPerOp(imca2.Read[r]), usPerOp(imca4.Read[r]),
			usPerOp(lusCold.Read[r]), usPerOp(lusWarm.Read[r]))
	}
	return &Result{Name: name, Table: tb}
}
