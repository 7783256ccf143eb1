package experiments

import (
	"fmt"

	"imca/internal/cluster"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// ExtBreakdown decomposes the latency of a single warm 2 KB read by stack
// layer for each IMCa block size — the Fig-6-style evidence behind the
// paper's §6 discussion of where a cached read's time goes. The file is
// written first (SMCache pushes the covering blocks bank-side), so the
// traced read is the warm fast path: FUSE crossing, CMCache assembly, and
// one MCD bank round trip, never touching the GlusterFS server.
func ExtBreakdown(o Options) *Result {
	const record = 2048
	blockSizes := []int64{256, 2048, 8192}

	type run struct {
		name string
		b    *optrace.Breakdown
	}
	// One point per block size, each with its own cluster and collector.
	runs := points(o, len(blockSizes), func(i int) run {
		bs := blockSizes[i]
		c := glusterSys("ext-breakdown", cluster.Options{MCDs: 1, MCDMemBytes: 256 << 20, BlockSize: bs}).deploy(o, 1).cluster
		col := optrace.NewCollector()
		fs := c.Mounts[0].FS
		c.Env.Process("ext-breakdown", func(p *sim.Proc) {
			fd := writeFile(p, fs, "ext-breakdown", "/b", 65536, 65536)
			col.Begin(p, "read")
			root := optrace.StartSpan(p, optrace.LayerOp, "read")
			data, err := fs.Read(p, fd, 0, record)
			root.End(p)
			col.End(p)
			if err != nil || data.Len() != record {
				panic(fmt.Sprintf("ext-breakdown: read %d bytes: %v", data.Len(), err))
			}
		})
		c.Env.Run()
		return run{fmt.Sprintf("IMCa-%s", fmtSize(bs)), col.Breakdown()}
	})

	// Union of observed layers, in canonical stack order.
	seen := make(map[string]bool)
	var layers []string
	for _, r := range runs {
		for _, n := range r.b.Layers() {
			if !seen[n] {
				seen[n] = true
				layers = append(layers, n)
			}
		}
	}
	optrace.SortLayers(layers)

	series := make([]string, len(runs))
	for i, r := range runs {
		series[i] = r.name
	}
	tb := metrics.NewTable("Ext: per-layer decomposition of one warm 2 KB read",
		"layer", "mean self time (µs)", series...)
	for _, ln := range layers {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.b.LayerMeanUs(ln)
		}
		tb.AddRow(ln, vals...)
	}
	totals := make([]float64, len(runs))
	for i, r := range runs {
		totals[i] = r.b.TotalMeanUs()
	}
	tb.AddRow("end-to-end", totals...)

	res := &Result{Name: "ext-breakdown", Table: tb}
	for _, r := range runs {
		res.Breakdowns = append(res.Breakdowns, NamedDump{r.name + " warm 2 KB read", textOf(r.b.Report)})
	}

	mid, total := runs[1].b, totals[1] // the 2 KB block size matches the record size
	bankUs := mid.LayerMeanUs(optrace.LayerMCD) + mid.LayerMeanUs(optrace.LayerNet) + mid.LayerMeanUs(optrace.LayerMCDSrv)
	res.order("the bank round trip is where a cached read's time goes (§6)", bankUs > total-bankUs,
		"IMCa-2K: bank round trip (mcd+net+mcdsrv) is %.1f µs of %.1f µs (%.0f%%)", bankUs, total, 100*bankUs/total)
	none := mid.Layer(optrace.LayerServer) == nil && mid.Layer(optrace.LayerSMCache) == nil && mid.Layer(optrace.LayerPosix) == nil
	res.order("a warm read never reaches the GlusterFS server", none, "IMCa-2K: no server, smcache or posix segment")
	return res
}
