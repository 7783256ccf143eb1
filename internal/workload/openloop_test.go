package workload

import (
	"runtime"
	"testing"

	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/sim"
)

func openLoopOpts() OpenLoopOptions {
	return OpenLoopOptions{
		Dir:               "/ol",
		Files:             64,
		FileSize:          2048,
		Tenants:           200,
		ArrivalsPerTenant: 4,
		MeanInterarrival:  2e6, // 2ms
		Seed:              7,
	}
}

func openLoopCluster() *cluster.Cluster {
	return cluster.New(cluster.Options{Clients: 4, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
}

// openLoop prepares and runs the generator in one step.
func openLoop(c *cluster.Cluster, mounts []gluster.FS, opts OpenLoopOptions) *OpenLoopRun {
	run := PrepareOpenLoop(c.Env, mounts, opts)
	run.Run()
	return run
}

func TestOpenLoopCompletes(t *testing.T) {
	c := openLoopCluster()
	opts := openLoopOpts()
	run := openLoop(c, c.FSes(), opts)
	want := uint64(opts.Tenants * opts.ArrivalsPerTenant)
	if run.Issued != want || run.Completed != want {
		t.Fatalf("issued %d completed %d, want %d each", run.Issued, run.Completed, want)
	}
	if run.Latency.Count() != want {
		t.Fatalf("latency observations = %d, want %d", run.Latency.Count(), want)
	}
	if run.Elapsed <= 0 {
		t.Error("non-positive elapsed virtual time")
	}
	var sum uint64
	for _, n := range run.KeyReads {
		sum += n
	}
	if sum != want {
		t.Fatalf("key reads sum to %d, want %d", sum, want)
	}
}

// TestOpenLoopDeterministic re-runs the same geometry on a fresh cluster:
// every arrival stream, and therefore every latency and counter, must
// repeat exactly.
func TestOpenLoopDeterministic(t *testing.T) {
	runOnce := func() *OpenLoopRun {
		c := openLoopCluster()
		return openLoop(c, c.FSes(), openLoopOpts())
	}
	a, b := runOnce(), runOnce()
	if a.Issued != b.Issued || a.Completed != b.Completed {
		t.Fatalf("counters differ: %d/%d vs %d/%d", a.Issued, a.Completed, b.Issued, b.Completed)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Latency.Sum() != b.Latency.Sum() || a.Latency.Max() != b.Latency.Max() {
		t.Fatalf("latency distributions differ: sum %v/%v max %v/%v",
			a.Latency.Sum(), b.Latency.Sum(), a.Latency.Max(), b.Latency.Max())
	}
	for i := range a.KeyReads {
		if a.KeyReads[i] != b.KeyReads[i] {
			t.Fatalf("key %d drew %d then %d times", i, a.KeyReads[i], b.KeyReads[i])
		}
	}
}

// TestOpenLoopZipfSkew checks the popularity profile actually offered:
// under Zipf(1), the hottest file must far exceed the uniform share and
// the frequency ranking must roughly follow the key order.
func TestOpenLoopZipfSkew(t *testing.T) {
	c := openLoopCluster()
	opts := openLoopOpts()
	opts.Tenants = 500
	opts.ArrivalsPerTenant = 8
	run := openLoop(c, c.FSes(), opts)
	uniform := float64(run.Issued) / float64(opts.Files)
	if head := float64(run.KeyReads[0]); head < 3*uniform {
		t.Errorf("hottest file drew %v reads, want ≥ 3× the uniform share %v", head, uniform)
	}
	// The head of the curve must dominate the tail end.
	var tail uint64
	for _, n := range run.KeyReads[opts.Files/2:] {
		tail += n
	}
	if run.KeyReads[0] < tail/8 {
		t.Errorf("head %d reads vs whole second half %d: skew too weak", run.KeyReads[0], tail)
	}
}

// TestOpenLoopRequiresTaskEngine: the generator refuses a blocking-only
// wrapper over a mount (here one that fails nothing), since its tenants
// keep several reads in flight and a process awaiting one cannot.
func TestOpenLoopRequiresTaskEngine(t *testing.T) {
	c := openLoopCluster()
	wrapped := make([]gluster.FS, 0, len(c.Mounts))
	for _, fs := range c.FSes() {
		wrapped = append(wrapped, failingFS{FS: fs})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("open-loop generator accepted blocking-only mounts")
		}
	}()
	openLoop(c, wrapped, openLoopOpts())
}

// TestOpenLoopOverLustre: the comparison system's clients are task-style
// too, so the generator runs over a Lustre deployment and every arrival
// completes.
func TestOpenLoopOverLustre(t *testing.T) {
	d := pinLustre()
	opts := openLoopOpts()
	opts.Tenants = 20
	run := PrepareOpenLoop(d.env, d.mounts, opts)
	run.Run()
	want := uint64(opts.Tenants * opts.ArrivalsPerTenant)
	if run.Issued != want || run.Completed != want || run.Latency.Count() != want {
		t.Fatalf("issued %d completed %d observed %d, want %d each", run.Issued, run.Completed, run.Latency.Count(), want)
	}
}

// TestOpenLoopSteadyStateAllocFree: once every pool along the read path has
// grown to the run's concurrency and every file's blocks are in the bank, an
// arrival allocates nothing — not its completion (a pooled frame of its
// tenant), not the read's block keys (bytes the bank borrows), not the bank
// or fabric frames. Counted, batch-amortised, over the second half of one
// long run: what it allocates is pool refills at a new peak of reads in
// flight, a count that grows with the run's rare concurrency records, not
// with its arrivals (≈ 180 here, against the ≈ 61,000 a cost of one per
// arrival would show).
func TestOpenLoopSteadyStateAllocFree(t *testing.T) {
	c := openLoopCluster()
	opts := openLoopOpts()
	opts.Files, opts.ArrivalsPerTenant = 8, 640 // every file hot long before the window
	run := PrepareOpenLoop(c.Env, c.FSes(), opts)
	span := sim.Duration(opts.ArrivalsPerTenant) * opts.MeanInterarrival
	var ms runtime.MemStats
	var mallocs, issued [2]uint64
	for i, at := range []sim.Duration{span / 2, span} {
		c.Env.Defer(at, func() {
			runtime.ReadMemStats(&ms)
			mallocs[i], issued[i] = ms.Mallocs, run.Issued
		})
	}
	run.Run()
	arrivals, n := issued[1]-issued[0], mallocs[1]-mallocs[0]
	if arrivals < 50000 {
		t.Fatalf("only %d arrivals between the probes; the window is too short to mean anything", arrivals)
	}
	if n*100 > arrivals {
		t.Errorf("%d steady-state arrivals allocated %d times (%.4f per arrival), want pool refills only, under 0.01 per arrival",
			arrivals, n, float64(n)/float64(arrivals))
	}
}
