package experiments

import (
	"fmt"

	"imca/internal/cluster"
	"imca/internal/metrics"
)

// Fig8a–Fig8d reproduce the client-count sweeps with a single MCD at four
// record sizes. The paper's observation: with one MCD, read latency rises
// with client count as capacity misses appear, yet IMCa still beats
// NoCache; Lustre warm stays lowest.
func Fig8a(o Options) *Result { return fig8(o, "fig8a", 64) }

// Fig8b is the 1 KB variant.
func Fig8b(o Options) *Result { return fig8(o, "fig8b", 1024) }

// Fig8c is the 8 KB variant.
func Fig8c(o Options) *Result { return fig8(o, "fig8c", 8192) }

// Fig8d is the 64 KB variant.
func Fig8d(o Options) *Result { return fig8(o, "fig8d", 65536) }

func fig8(o Options, name string, record int64) *Result {
	mcdMem := o.mcdMemForLatency()
	clientCounts := []int{1, 2, 4, 8, 16, 32}
	sizes := []int64{record}

	tb := metrics.NewTable(
		fmt.Sprintf("Fig 8 (%s): read latency vs clients, %s records, 1 MCD", name, fmtSize(record)),
		"clients", "read latency (µs/op)",
		"NoCache", "IMCa(1MCD)", "Lustre-4DS(Cold)", "Lustre-4DS(Warm)")

	// Four columns per client count; the IMCa point also reports its bank
	// miss count so the last-row side data rides in the point result.
	type row struct {
		noCache, imca, lusCold, lusWarm float64
		misses                          uint64
	}
	rows := points(o, len(clientCounts), func(i int) row {
		nc := clientCounts[i]
		noCache := latencyRun(o, cluster.Options{Clients: nc}, sizes, false, nil)

		c, mounts := glusterMounts(gOpts(o, cluster.Options{Clients: nc, MCDs: 1, MCDMemBytes: mcdMem}))
		imca := latencyRunOn(o, c, mounts, sizes)

		lusCold := lustreLatencyRun(o, nc, 4, sizes, true)
		lusWarm := lustreLatencyRun(o, nc, 4, sizes, false)
		return row{
			noCache: usPerOp(noCache.Read[record]), imca: usPerOp(imca.Read[record]),
			lusCold: usPerOp(lusCold.Read[record]), lusWarm: usPerOp(lusWarm.Read[record]),
			misses: c.BankStats().GetMisses,
		}
	})
	for i, nc := range clientCounts {
		tb.AddRow(fmt.Sprint(nc), rows[i].noCache, rows[i].imca, rows[i].lusCold, rows[i].lusWarm)
	}
	misses := rows[len(rows)-1].misses

	lastIdx := tb.Rows() - 1
	res := &Result{Name: name, Table: tb}
	res.Notes = []string{
		note("latency growth for IMCa(1MCD), 1 -> %s clients: %.0f -> %.0f µs (paper: rises with clients)",
			tb.X(lastIdx), tb.Value(0, "IMCa(1MCD)"), tb.Value(lastIdx, "IMCa(1MCD)")),
		note("at %s clients IMCa(1MCD) cuts %.0f%% vs NoCache",
			tb.X(lastIdx), 100*metrics.Reduction(tb.Value(lastIdx, "NoCache"), tb.Value(lastIdx, "IMCa(1MCD)"))),
		note("MCD misses at max clients: %d", misses),
	}
	return res
}
