// Benchmarks regenerating each of the paper's tables and figures (one
// bench per figure) plus ablations for the design choices DESIGN.md calls
// out. Each iteration runs the full (scaled-down) experiment; custom
// metrics report the figure's headline quantity so `go test -bench` output
// doubles as a compact reproduction table.
//
// Absolute ns/op values measure simulator wall time, not the modeled
// system; the reported custom metrics (µs/op of virtual time, MB/s of
// virtual bandwidth, reduction percentages) are the reproduced results.
package imca_test

import (
	"testing"

	"imca/internal/cluster"
	"imca/internal/experiments"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/workload"
)

// benchScale keeps each iteration fast; cmd/imcabench runs finer scales.
const benchScale = 256

// runFig runs the registry's figure name at benchScale.
func runFig(b *testing.B, name string) *experiments.Result {
	e, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("no %s in the registry", name)
	}
	return e.Run(experiments.Options{Scale: benchScale})
}

func BenchmarkFig1NFSBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig1a")
		last := res.Table.LastRow()
		b.ReportMetric(last["RDMA"], "RDMA-MB/s")
		b.ReportMetric(last["GigE"], "GigE-MB/s")
	}
}

func BenchmarkFig5Stat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig5")
		last := res.Table.LastRow()
		b.ReportMetric(100*metrics.Reduction(last["NoCache"], last["MCD(1)"]), "%cut-1mcd")
		b.ReportMetric(100*metrics.Reduction(last["Lustre-4DS"], last["MCD(6)"]), "%below-lustre")
	}
}

func BenchmarkFig6aReadLatencySmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig6a")
		b.ReportMetric(res.Table.Value(0, "NoCache"), "nocache-1B-µs")
		b.ReportMetric(res.Table.Value(0, "IMCa-2K"), "imca2k-1B-µs")
	}
}

func BenchmarkFig6bReadLatencyLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig6b")
		last := res.Table.Rows() - 1
		b.ReportMetric(res.Table.Value(last, "NoCache"), "nocache-µs")
		b.ReportMetric(res.Table.Value(last, "IMCa-256"), "imca256-µs")
	}
}

func BenchmarkFig6cWriteLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig6c")
		b.ReportMetric(res.Table.Value(3, "IMCa(inline)"), "inline-2K-µs")
		b.ReportMetric(res.Table.Value(3, "IMCa(threaded)"), "threaded-2K-µs")
	}
}

func BenchmarkFig7MultiClientLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig7a")
		b.ReportMetric(res.Table.Value(0, "NoCache"), "nocache-1B-µs")
		b.ReportMetric(res.Table.Value(0, "IMCa(4MCD)"), "imca4-1B-µs")
	}
}

func BenchmarkFig8ClientSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig8b")
		last := res.Table.Rows() - 1
		b.ReportMetric(res.Table.Value(last, "IMCa(1MCD)"), "imca-32c-µs")
		b.ReportMetric(res.Table.Value(last, "NoCache"), "nocache-32c-µs")
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig9")
		last := res.Table.LastRow()
		b.ReportMetric(last["IMCa(4MCD)"], "imca4-MB/s")
		b.ReportMetric(last["NoCache"], "nocache-MB/s")
	}
}

func BenchmarkFig10SharedFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFig(b, "fig10")
		last := res.Table.Rows() - 1
		b.ReportMetric(100*metrics.Reduction(
			res.Table.Value(last, "NoCache"), res.Table.Value(last, "IMCa(1MCD)")), "%cut")
	}
}

// --- Ablations (design choices from DESIGN.md) ---

// readLatency1B measures warm 1-byte read latency (µs) on one client for
// the given IMCa block size.
func readLatency1B(blockSize int64) float64 {
	c := cluster.New(cluster.Options{
		Clients: 1, MCDs: 1, MCDMemBytes: 64 << 20, BlockSize: blockSize,
		ServerCacheBytes: 64 << 20,
	})
	// Write 8K records first so the file is large enough that a 1-byte
	// read transfers a full cache block at every block size.
	res := workload.Latency(c.Env, c.FSes(), workload.LatencyOptions{
		Dir: "/abl", RecordSizes: []int64{8192, 1}, Records: 64,
	})
	return float64(res.Read[1]) / 1e3
}

func BenchmarkAblationBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(readLatency1B(256), "256B-µs")
		b.ReportMetric(readLatency1B(2048), "2K-µs")
		b.ReportMetric(readLatency1B(8192), "8K-µs")
	}
}

func writeLatency2K(threaded bool) float64 {
	c := cluster.New(cluster.Options{
		Clients: 1, MCDs: 1, MCDMemBytes: 64 << 20, BlockSize: 2048, Threaded: threaded,
		ServerCacheBytes: 64 << 20,
	})
	res := workload.Latency(c.Env, c.FSes(), workload.LatencyOptions{
		Dir: "/abl", RecordSizes: []int64{2048}, Records: 64,
	})
	return float64(res.Write[2048]) / 1e3
}

func BenchmarkAblationThreadedUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(writeLatency2K(false), "inline-µs")
		b.ReportMetric(writeLatency2K(true), "threaded-µs")
	}
}

func throughputWithSelector(sel memcache.Selector) float64 {
	c := cluster.New(cluster.Options{
		Clients: 4, MCDs: 4, MCDMemBytes: 64 << 20, BlockSize: 2048,
		Selector: sel, ServerCacheBytes: 64 << 20,
	})
	res := workload.Throughput(c.Env, c.FSes(), workload.ThroughputOptions{
		Dir: "/abl", FileSize: 4 << 20, RecordSize: 64 << 10,
	})
	return res.ReadBps / 1e6
}

func BenchmarkAblationSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(throughputWithSelector(memcache.CRC32Selector{}), "crc32-MB/s")
		b.ReportMetric(throughputWithSelector(memcache.BlockModuloSelector{BlockSize: 2048}), "modulo-MB/s")
	}
}

func statTime(mcds int) float64 {
	opts := cluster.Options{Clients: 32, ServerCacheBytes: 64 << 20}
	if mcds > 0 {
		opts.MCDs = mcds
		opts.MCDMemBytes = 64 << 20
	}
	c := cluster.New(opts)
	workload.CreateFiles(c.Env, c.Mounts[0].FS, "/abl", 256)
	return workload.StatBench(c.Env, c.FSes(), "/abl", 256).Seconds() * 1e3
}

func BenchmarkAblationMCDCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(statTime(0), "nocache-ms")
		b.ReportMetric(statTime(1), "1mcd-ms")
		b.ReportMetric(statTime(4), "4mcd-ms")
	}
}
