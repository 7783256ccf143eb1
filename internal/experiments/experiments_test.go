package experiments

import (
	"strings"
	"testing"
)

// tiny runs experiments at an aggressive scale so the whole registry can
// be smoke-tested in CI. Shapes at this scale are noisier than the
// documented scale-16 runs, so assertions stick to structural invariants
// and the most robust orderings.
var tiny = Options{Scale: 1024}

func TestRegistryComplete(t *testing.T) {
	wantFigs := []string{
		"fig1a", "fig1b", "fig5", "fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig8a", "fig8b", "fig8c", "fig8d",
		"fig9", "fig10",
		"ext-rdma", "ext-hash", "ext-lustre", "ext-sharing", "ext-smallfile", "ext-mdtest", "ext-bricks",
		"ext-breakdown", "ext-telemetry", "ext-fault", "ext-scale",
		"ext-degrade",
		"fig5-short",
	}
	if len(Registry) != len(wantFigs) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(wantFigs))
	}
	for i, name := range wantFigs {
		if Registry[i].Name != name {
			t.Errorf("registry[%d] = %s, want %s", i, Registry[i].Name, name)
		}
		if Registry[i].Run == nil || Registry[i].Description == "" {
			t.Errorf("registry[%d] incomplete", i)
		}
	}
	if _, ok := Find("fig9"); !ok {
		t.Error("Find(fig9) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func TestFig5ShortShape(t *testing.T) {
	res := Fig5Short(tiny)
	if res.Table.Rows() != 7 { // same client-count rows as fig5
		t.Fatalf("rows = %d, want 7", res.Table.Rows())
	}
	// The stratified sample preserves fig5's headline ordering: at the
	// largest client count, the cache bank beats NoCache.
	last := res.Table.LastRow()
	if last["MCD(1)"] >= last["NoCache"] {
		t.Errorf("MCD(1) (%f) not below NoCache (%f) at max clients",
			last["MCD(1)"], last["NoCache"])
	}
}

func TestFig1Shape(t *testing.T) {
	res := Fig1a(tiny)
	if res.Table.Rows() != 4 {
		t.Fatalf("rows = %d, want 4 client counts", res.Table.Rows())
	}
	// At one client, RDMA must beat GigE.
	if res.Table.Value(0, "RDMA") <= res.Table.Value(0, "GigE") {
		t.Errorf("RDMA (%f) not above GigE (%f) at 1 client",
			res.Table.Value(0, "RDMA"), res.Table.Value(0, "GigE"))
	}
}

func TestFig6aShape(t *testing.T) {
	res := Fig6a(tiny)
	if res.Table.Rows() != 12 { // 1B..2K powers of two
		t.Fatalf("rows = %d", res.Table.Rows())
	}
	// 1-byte reads: every IMCa block size must beat NoCache warm.
	for _, col := range []string{"IMCa-256", "IMCa-2K", "IMCa-8K"} {
		if res.Table.Value(0, col) >= res.Table.Value(0, "NoCache") {
			t.Errorf("%s (%f µs) not below NoCache (%f µs) at 1 byte",
				col, res.Table.Value(0, col), res.Table.Value(0, "NoCache"))
		}
	}
	// Block-size ordering at 1 byte.
	if !(res.Table.Value(0, "IMCa-256") < res.Table.Value(0, "IMCa-2K") &&
		res.Table.Value(0, "IMCa-2K") < res.Table.Value(0, "IMCa-8K")) {
		t.Error("block-size latency ordering violated at 1 byte")
	}
}

func TestFig6cShape(t *testing.T) {
	res := Fig6c(tiny)
	for i := 0; i < res.Table.Rows(); i++ {
		in := res.Table.Value(i, "IMCa(inline)")
		th := res.Table.Value(i, "IMCa(threaded)")
		nc := res.Table.Value(i, "NoCache")
		if in <= nc {
			t.Errorf("row %s: inline (%f) not above NoCache (%f)", res.Table.X(i), in, nc)
		}
		if th > nc*1.05 {
			t.Errorf("row %s: threaded (%f) not ≈ NoCache (%f)", res.Table.X(i), th, nc)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10(tiny)
	last := res.Table.Rows() - 1
	if res.Table.Value(last, "IMCa(1MCD)") >= res.Table.Value(last, "NoCache") {
		t.Error("shared-file IMCa not below NoCache at max clients")
	}
	// Latency grows with clients for NoCache (single server).
	if res.Table.Value(last, "NoCache") <= res.Table.Value(0, "NoCache") {
		t.Error("NoCache shared-read latency did not grow with clients")
	}
}

func TestExtHashShape(t *testing.T) {
	res := ExtHash(tiny)
	// Ketama must move far fewer keys than modulo-style selectors.
	ket := res.Table.Value(1, "Ketama")
	crc := res.Table.Value(1, "CRC32")
	if ket >= crc/2 {
		t.Errorf("ketama moved %.0f%%, crc %.0f%%; expected ketama well below", ket, crc)
	}
}

func TestExtRDMAShape(t *testing.T) {
	res := ExtRDMA(tiny)
	for i := 0; i < res.Table.Rows(); i++ {
		if res.Table.Value(i, "IMCa/RDMA") >= res.Table.Value(i, "IMCa/IPoIB") {
			t.Errorf("row %s: RDMA (%f) not below IPoIB (%f)",
				res.Table.X(i), res.Table.Value(i, "IMCa/RDMA"), res.Table.Value(i, "IMCa/IPoIB"))
		}
	}
}

func TestNotesMentionPaperClaims(t *testing.T) {
	res := Fig6a(tiny)
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"59%", "45%", "31%"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fig6a notes missing paper claim %s:\n%s", want, joined)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	if got := scaled(1<<30, 1<<20); got != 1<<20 {
		t.Errorf("scaled floor = %d, want 1MB", got)
	}
	if got := scaled(6<<30, 1); got != 6<<30 {
		t.Errorf("scaled(x,1) = %d, want x", got)
	}
}

func TestRecordsByScale(t *testing.T) {
	if (Options{Scale: 1}).records() != 1024 {
		t.Error("full scale should use the paper's 1024 records")
	}
	if (Options{Scale: 256}).records() >= 1024 {
		t.Error("scaled runs should reduce records")
	}
}

func TestDeterministicExperiment(t *testing.T) {
	a := Fig6c(tiny)
	b := Fig6c(tiny)
	for i := 0; i < a.Table.Rows(); i++ {
		for _, col := range []string{"NoCache", "IMCa(inline)", "IMCa(threaded)"} {
			if a.Table.Value(i, col) != b.Table.Value(i, col) {
				t.Fatalf("experiment not deterministic at row %d col %s", i, col)
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(tiny)
	last := res.Table.Rows() - 1
	// More MCDs never hurt aggregate read throughput at max threads.
	if res.Table.Value(last, "IMCa(4MCD)") < res.Table.Value(last, "IMCa(2MCD)") {
		t.Errorf("4 MCDs (%f) below 2 MCDs (%f) at max threads",
			res.Table.Value(last, "IMCa(4MCD)"), res.Table.Value(last, "IMCa(2MCD)"))
	}
	// And the 4-MCD configuration beats the single server.
	if res.Table.Value(last, "IMCa(4MCD)") <= res.Table.Value(last, "NoCache") {
		t.Error("IMCa(4MCD) did not beat NoCache at max threads")
	}
}

func TestExtSharingShape(t *testing.T) {
	res := ExtSharing(tiny)
	last := res.Table.Rows() - 1
	if res.Table.Value(last, "IMCa(2MCD)") <= 0 ||
		res.Table.Value(last, "Lustre(coherent client cache)") <= 0 {
		t.Fatal("sharing experiment produced empty results")
	}
	// The bank's advantage must grow (or at least persist) with clients.
	if res.Table.Value(last, "IMCa(2MCD)") >= res.Table.Value(last, "Lustre(coherent client cache)") {
		t.Error("bank not ahead of the coherent client cache at max clients")
	}
}

func TestExtBreakdownShape(t *testing.T) {
	res := ExtBreakdown(tiny)
	rows := res.Table.Rows()
	if rows < 3 {
		t.Fatalf("rows = %d, want at least a few layers plus end-to-end", rows)
	}
	if res.Table.X(rows-1) != "end-to-end" {
		t.Fatalf("last row = %q, want end-to-end", res.Table.X(rows-1))
	}
	// The decomposition is a partition: layer segments sum to the
	// end-to-end latency, per block size.
	for _, col := range []string{"IMCa-256", "IMCa-2K", "IMCa-8K"} {
		var sum float64
		for i := 0; i < rows-1; i++ {
			sum += res.Table.Value(i, col)
		}
		total := res.Table.Value(rows-1, col)
		if total <= 0 {
			t.Errorf("%s end-to-end = %f, want > 0", col, total)
		}
		if diff := sum - total; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: layer sum %f µs != end-to-end %f µs", col, sum, total)
		}
	}
	if len(res.Breakdowns) != 3 {
		t.Errorf("Breakdowns = %d, want 3", len(res.Breakdowns))
	}
}

func TestBreakdownOptionKeepsTablesIdentical(t *testing.T) {
	plain := Fig6a(tiny)
	traced := Fig6a(Options{Scale: tiny.Scale, Observe: true})
	for i := 0; i < plain.Table.Rows(); i++ {
		for _, col := range []string{"NoCache", "IMCa-2K"} {
			if plain.Table.Value(i, col) != traced.Table.Value(i, col) {
				t.Fatalf("row %d %s: %f (plain) != %f (traced) — tracing must cost zero virtual time",
					i, col, plain.Table.Value(i, col), traced.Table.Value(i, col))
			}
		}
	}
	if len(traced.Breakdowns) == 0 {
		t.Error("traced run attached no breakdowns")
	}
	if len(plain.Breakdowns) != 0 {
		t.Error("plain run attached breakdowns")
	}
}

func TestExtTelemetryShape(t *testing.T) {
	res := ExtTelemetry(tiny)
	rows := res.Table.Rows()
	if rows < 4 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	last := rows - 1
	// After six passes the bank has served five warm passes; the server's
	// buffer cache warmed during pass one and stayed idle after.
	if got := res.Table.Value(last, "bank hit rate"); got < 0.5 {
		t.Errorf("final bank hit rate = %v, want ≥ 0.5", got)
	}
	if got := res.Table.Value(last, "pagecache hit rate"); got < 0.9 {
		t.Errorf("final pagecache hit rate = %v, want ≥ 0.9", got)
	}
	// The bank starts cold: the first interval is all server traffic.
	if got := res.Table.Value(0, "bank hit rate"); got > 0.1 {
		t.Errorf("initial bank hit rate = %v, want ≈ 0", got)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "overtakes") {
		t.Errorf("notes missing the crossover claim:\n%s", joined)
	}
	// Cumulative hit rates never decrease once lookups stop arriving.
	for i := 1; i < rows; i++ {
		if res.Table.Value(i, "bank hit rate") < res.Table.Value(i-1, "bank hit rate")-1e-9 {
			t.Errorf("bank hit rate decreased at row %d", i)
		}
	}
}

func TestTelemetryOptionKeepsTablesIdentical(t *testing.T) {
	plain := Fig6a(tiny)
	teled := Fig6a(Options{Scale: tiny.Scale, Observe: true})
	for i := 0; i < plain.Table.Rows(); i++ {
		for _, col := range []string{"NoCache", "IMCa-256", "IMCa-2K", "IMCa-8K"} {
			if plain.Table.Value(i, col) != teled.Table.Value(i, col) {
				t.Fatalf("row %d %s: %f (plain) != %f (instrumented) — telemetry must cost zero virtual time",
					i, col, plain.Table.Value(i, col), teled.Table.Value(i, col))
			}
		}
	}
	if len(teled.Telemetry) == 0 {
		t.Error("instrumented run attached no counter dumps")
	}
	if len(teled.Ops) == 0 {
		t.Error("observed run retained no operations")
	}
	if len(plain.Telemetry) != 0 || len(plain.Ops) != 0 {
		t.Error("plain run attached telemetry artifacts")
	}
	for _, d := range teled.Telemetry {
		if d.Title == "" || !strings.Contains(d.Text, "cmcache.read_hits") {
			t.Errorf("dump %q missing expected instruments", d.Title)
		}
	}
}

func TestExtTelemetryDeterministic(t *testing.T) {
	a := ExtTelemetry(tiny)
	b := ExtTelemetry(tiny)
	if a.Table.Rows() != b.Table.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Table.Rows(), b.Table.Rows())
	}
	for i := 0; i < a.Table.Rows(); i++ {
		for _, col := range []string{"bank hit rate", "pagecache hit rate", "bank hits Δ", "pagecache lookups Δ"} {
			if a.Table.Value(i, col) != b.Table.Value(i, col) {
				t.Fatalf("row %d col %s not deterministic", i, col)
			}
		}
	}
}

func TestExtScaleShape(t *testing.T) {
	// Scale 4096 keeps this to two arrivals per tenant — the 10,000-tenant
	// population is the point, not the per-tenant stream length.
	// Serial-vs-parallel identity for this figure is covered by
	// TestParallelByteIdentical, which renders the whole registry (this
	// experiment included) both ways and byte-compares.
	res := ExtScale(Options{Scale: 4096})
	if res.Table.Rows() != 3 {
		t.Fatalf("rows = %d, want 3 offered rates", res.Table.Rows())
	}
	joined := strings.Join(res.Notes, "\n")
	// The run is only meaningful at its headline cardinality, and every
	// open-loop arrival must have completed.
	if !strings.Contains(joined, "10000 tenants") {
		t.Fatalf("notes missing the 10000-tenant claim:\n%s", joined)
	}
	if !strings.Contains(joined, "every arrival completed") {
		t.Fatalf("notes missing the completion claim:\n%s", joined)
	}
	for i := 0; i < res.Table.Rows(); i++ {
		p50 := res.Table.Value(i, "p50 µs")
		p95 := res.Table.Value(i, "p95 µs")
		p99 := res.Table.Value(i, "p99 µs")
		if p50 <= 0 {
			t.Errorf("row %s: p50 = %v, want > 0", res.Table.X(i), p50)
		}
		if !(p50 <= p95 && p95 <= p99) {
			t.Errorf("row %s: quantiles not monotone: p50 %v p95 %v p99 %v",
				res.Table.X(i), p50, p95, p99)
		}
		if hr := res.Table.Value(i, "bank hit rate"); hr <= 0 || hr > 1 {
			t.Errorf("row %s: bank hit rate = %v, want in (0, 1]", res.Table.X(i), hr)
		}
		if sk := res.Table.Value(i, "bank skew"); sk < 1 {
			t.Errorf("row %s: bank skew = %v, want ≥ 1 (max over mean)", res.Table.X(i), sk)
		}
	}
}

func TestExtFaultShape(t *testing.T) {
	res := ExtFault(Options{Scale: tiny.Scale, Observe: true})
	rows := res.Table.Rows()
	if rows < 8 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	peak := func(col string) float64 {
		max := 0.0
		for i := 0; i < rows; i++ {
			if v := res.Table.Value(i, col); v > max {
				max = v
			}
		}
		return max
	}
	// The outage must hurt the plain client far more than the failover
	// client: the plain one pays the connect timeout per lookup for the
	// whole window, the failover one only until it ejects the daemon.
	pp, pf := peak("latency µs (plain)"), peak("latency µs (failover)")
	if pp <= pf {
		t.Errorf("plain peak latency %v µs not above failover peak %v µs", pp, pf)
	}
	// Before the crash both clients behave identically.
	if a, b := res.Table.Value(0, "latency µs (plain)"), res.Table.Value(0, "latency µs (failover)"); a != b {
		t.Errorf("pre-fault latencies differ: %v vs %v", a, b)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"ejects", "fast-fails", "readmits", "unreachable"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	// The failover client's ejection machinery must actually have engaged.
	if !strings.Contains(joined, "2 ejects") && !strings.Contains(joined, "1 ejects") {
		t.Errorf("notes report no ejects:\n%s", joined)
	}
	if len(res.Telemetry) != 2 {
		t.Fatalf("telemetry dumps = %d, want 2", len(res.Telemetry))
	}
	// The instrumented dumps carry the failover counters (bank.*) and the
	// injector's own armed/fired pair.
	for _, want := range []string{"bank.ejects", "bank.probes", "bank.fast_fails", "fault.armed", "fault.fired"} {
		if !strings.Contains(res.Telemetry[1].Text, want) {
			t.Errorf("failover dump missing %s", want)
		}
	}
}

func TestExtDegradeShape(t *testing.T) {
	res := ExtDegrade(tiny)
	rows := res.Table.Rows()
	if rows < 8 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	// The headline: across the whole window the replicated bank sheds
	// strictly less load to the brick than the single copy — its reads
	// fail over to the surviving copy instead of missing to the server.
	var single, repl float64
	for i := 0; i < rows; i++ {
		single += res.Table.Value(i, "brick reads (R=1)")
		repl += res.Table.Value(i, "brick reads (R=2)")
	}
	if repl >= single {
		t.Errorf("brick absorbed %v reads replicated vs %v single-copy — replication bought nothing",
			repl, single)
	}
	// Before the first fault the configurations are indistinguishable.
	if a, b := res.Table.Value(0, "read p99 µs (R=1)"), res.Table.Value(0, "read p99 µs (R=2)"); a != b {
		t.Errorf("pre-fault p99s differ: %v vs %v", a, b)
	}
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"failovers", "suspects", "ejects", "brick daemon absorbed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
}
