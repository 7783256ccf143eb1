package experiments

import (
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	wantFigs := []string{
		"fig1a", "fig1b", "fig5", "fig6a", "fig6b", "fig6c",
		"fig7a", "fig7b", "fig8a", "fig8b", "fig8c", "fig8d",
		"fig9", "fig10",
		"ext-rdma", "ext-hash", "ext-lustre", "ext-sharing", "ext-smallfile", "ext-mdtest", "ext-bricks",
		"ext-breakdown", "ext-telemetry", "ext-fault", "ext-scale",
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

// TestClaims judges every claim of the registry at ClaimScale: each is
// reproduced or carries the Why of a known deviation, and every experiment
// states at least one. A paper number is quoted by one claim only, so the
// scorecard counts each once.
func TestClaims(t *testing.T) {
	quoted := make(map[string]string)
	for _, r := range PlainRun() {
		if len(r.Claims) == 0 {
			t.Errorf("%s states no claim", r.Name)
		}
		for _, c := range r.Claims {
			if !c.Reproduced() && c.Why == "" {
				t.Errorf("%s: %s", r.Name, c)
			}
			if c.Paper == 0 {
				continue
			}
			if prev, ok := quoted[c.Quote]; ok {
				t.Errorf("%s and %s both quote %q", prev, r.Name, c.Quote)
			}
			quoted[c.Quote] = r.Name
		}
	}
}

// TestDeviationsCited keeps EXPERIMENTS.md and the claims in step: every
// Why cites an entry of its Known deviations, and every entry is cited.
func TestDeviationsCited(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, known, _ := strings.Cut(string(doc), "\n## Known deviations")
	known, _, _ = strings.Cut(known, "\n## ")
	var entries []string
	cited := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*`).FindAllStringSubmatch(known, -1) {
		entries = append(entries, m[1])
		cited[m[1]] = false
	}
	if len(entries) == 0 {
		t.Fatal("EXPERIMENTS.md lists no Known deviations")
	}
	cite := regexp.MustCompile(`^deviation (\d+): `)
	for _, r := range PlainRun() {
		for _, c := range r.Claims {
			if c.Why == "" {
				continue
			}
			n := ""
			if m := cite.FindStringSubmatch(c.Why); m != nil {
				n = m[1]
			}
			if _, ok := cited[n]; !ok {
				t.Errorf("%s: %q cites no Known deviation", r.Name, c.Why)
				continue
			}
			cited[n] = true
		}
	}
	for _, n := range entries {
		if !cited[n] {
			t.Errorf("Known deviation %s is cited by no claim", n)
		}
	}
}

// plainResult is the named experiment's run in PlainRun.
func plainResult(t *testing.T, name string) *Result {
	t.Helper()
	for _, r := range PlainRun() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no %s in the registry", name)
	return nil
}

// holds fails unless res states the claim quoted and the run keeps it: at
// ClaimScale these are pinned, whatever Why they carry at others.
func holds(t *testing.T, res *Result, quote string) {
	t.Helper()
	for _, c := range res.Claims {
		if c.Quote == quote {
			if !c.Reproduced() {
				t.Errorf("%s: %s", res.Name, c)
			}
			return
		}
	}
	t.Errorf("%s states no claim %q", res.Name, quote)
}

// sameTables fails unless two runs of one experiment measured exactly the
// same table: every value, not only what Render prints of it.
func sameTables(t *testing.T, want, got *Result) {
	t.Helper()
	if !slices.Equal(want.Table.Columns, got.Table.Columns) || want.Table.Rows() != got.Table.Rows() {
		t.Fatalf("%s: columns %v × %d rows vs %v × %d", want.Name, want.Table.Columns, want.Table.Rows(), got.Table.Columns, got.Table.Rows())
	}
	for i := 0; i < want.Table.Rows(); i++ {
		for _, col := range want.Table.Columns {
			if a, b := want.Table.Value(i, col), got.Table.Value(i, col); a != b || want.Table.X(i) != got.Table.X(i) {
				t.Fatalf("%s: row %d (%s) %s: %v vs %v", want.Name, i, want.Table.X(i), col, a, b)
			}
		}
	}
}

func TestFig1Shape(t *testing.T) {
	res := plainResult(t, "fig1a")
	if res.Table.Rows() != 4 {
		t.Fatalf("rows = %d, want 4 client counts", res.Table.Rows())
	}
	if res.Table.Value(0, "RDMA") <= res.Table.Value(0, "GigE") {
		t.Errorf("RDMA (%f) not above GigE (%f) at 1 client", res.Table.Value(0, "RDMA"), res.Table.Value(0, "GigE"))
	}
}

func TestFig6aShape(t *testing.T) {
	res := plainResult(t, "fig6a")
	if res.Table.Rows() != 12 { // 1B..2K powers of two
		t.Fatalf("rows = %d", res.Table.Rows())
	}
	for _, col := range []string{"IMCa-256", "IMCa-2K", "IMCa-8K"} {
		if res.Table.Value(0, col) >= res.Table.Value(0, "NoCache") {
			t.Errorf("%s (%f µs) not below NoCache (%f µs) at 1 byte", col, res.Table.Value(0, col), res.Table.Value(0, "NoCache"))
		}
	}
	holds(t, res, "smaller blocks win at small records")
}

// TestNotesMentionPaperClaims: fig6a states the paper's three 1-byte cuts
// as numbers, judged against the run.
func TestNotesMentionPaperClaims(t *testing.T) {
	stated := make(map[float64]bool)
	for _, c := range plainResult(t, "fig6a").Claims {
		stated[c.Paper] = true
	}
	for _, want := range []float64{59, 45, 31} {
		if !stated[want] {
			t.Errorf("fig6a states no claim with the paper's %v%%", want)
		}
	}
}

func TestFig6cShape(t *testing.T) {
	res := plainResult(t, "fig6c")
	holds(t, res, "inline update worse than NoCache: a read-back and an MCD update on the critical path")
	// Tighter than the claim's tolerance: the threaded update leaves at most
	// 5 % on the write path.
	for i := 0; i < res.Table.Rows(); i++ {
		if th, nc := res.Table.Value(i, "IMCa(threaded)"), res.Table.Value(i, "NoCache"); th > nc*1.05 {
			t.Errorf("row %s: threaded (%f) not ≈ NoCache (%f)", res.Table.X(i), th, nc)
		}
	}
}

func TestDeterministicExperiment(t *testing.T) {
	e, _ := Find("fig6c")
	sameTables(t, plainResult(t, "fig6c"), e.Run(Options{Scale: ClaimScale}))
}

func TestFig9Shape(t *testing.T) {
	res := plainResult(t, "fig9")
	holds(t, res, "more MCDs, more aggregate bandwidth")
	last := res.Table.Rows() - 1
	if res.Table.Value(last, "IMCa(4MCD)") <= res.Table.Value(last, "NoCache") {
		t.Error("IMCa(4MCD) did not beat NoCache at max threads")
	}
}

func TestFig10Shape(t *testing.T) {
	res := plainResult(t, "fig10")
	last := res.Table.Rows() - 1
	if res.Table.Value(last, "IMCa(1MCD)") >= res.Table.Value(last, "NoCache") {
		t.Error("shared-file IMCa not below NoCache at max clients")
	}
	holds(t, res, "latency still grows with nodes: one MCD serializes the readers")
}

func TestExtRDMAShape(t *testing.T) {
	holds(t, plainResult(t, "ext-rdma"), "RDMA can help reduce the overhead of the cache bank (§7)")
}

func TestExtHashShape(t *testing.T) {
	res := plainResult(t, "ext-hash")
	if ket, crc := res.Table.Value(1, "Ketama"), res.Table.Value(1, "CRC32"); ket >= crc/2 {
		t.Errorf("ketama moved %.0f%%, crc %.0f%%; expected ketama well below", ket, crc)
	}
}

func TestExtSharingShape(t *testing.T) {
	res := plainResult(t, "ext-sharing")
	last := res.Table.Rows() - 1
	if res.Table.Value(last, "IMCa(2MCD)") <= 0 || res.Table.Value(last, "Lustre(coherent client cache)") <= 0 {
		t.Fatal("sharing experiment produced empty results")
	}
	holds(t, res, "under write/read sharing the bank outscales a coherent client cache (§7)")
}

func TestExtBreakdownShape(t *testing.T) {
	res := plainResult(t, "ext-breakdown")
	rows := res.Table.Rows()
	if rows < 3 || res.Table.X(rows-1) != "end-to-end" {
		t.Fatalf("rows = %d ending %q, want a few layers then end-to-end", rows, res.Table.X(rows-1))
	}
	// The decomposition is a partition: the table's layer segments sum to
	// the end-to-end latency, per block size.
	for _, col := range []string{"IMCa-256", "IMCa-2K", "IMCa-8K"} {
		var sum float64
		for i := 0; i < rows-1; i++ {
			sum += res.Table.Value(i, col)
		}
		total := res.Table.Value(rows-1, col)
		if total <= 0 {
			t.Errorf("%s end-to-end = %f, want > 0", col, total)
		}
		if math.Abs(sum-total) > 0.01 {
			t.Errorf("%s: layer sum %f µs != end-to-end %f µs", col, sum, total)
		}
	}
	if len(res.Breakdowns) != 3 {
		t.Errorf("Breakdowns = %d, want 3", len(res.Breakdowns))
	}
}

// observedFig6a is fig6a at ClaimScale with observation on, shared by
// the two tests that compare it with the plain run.
var observedFig6a = sync.OnceValue(func() *Result {
	e, _ := Find("fig6a")
	return e.Run(Options{Scale: ClaimScale, Observe: true})
})

func TestBreakdownOptionKeepsTablesIdentical(t *testing.T) {
	plain, traced := plainResult(t, "fig6a"), observedFig6a()
	sameTables(t, plain, traced) // tracing costs zero virtual time
	if len(traced.Breakdowns) == 0 {
		t.Error("traced run attached no breakdowns")
	}
	if len(plain.Breakdowns) != 0 {
		t.Error("plain run attached breakdowns")
	}
}

func TestTelemetryOptionKeepsTablesIdentical(t *testing.T) {
	plain, teled := plainResult(t, "fig6a"), observedFig6a()
	sameTables(t, plain, teled) // telemetry costs zero virtual time
	if len(teled.Telemetry) == 0 || len(teled.Ops) == 0 {
		t.Errorf("observed run attached %d counter dumps and %d operations, want some of each", len(teled.Telemetry), len(teled.Ops))
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

func TestExtTelemetryShape(t *testing.T) {
	res := plainResult(t, "ext-telemetry")
	rows := res.Table.Rows()
	if rows < 4 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	// After six passes the bank has served five warm passes; the server's
	// buffer cache warmed during pass one and stayed idle after.
	if got := res.Table.Value(rows-1, "bank hit rate"); got < 0.5 {
		t.Errorf("final bank hit rate = %v, want ≥ 0.5", got)
	}
	if got := res.Table.Value(rows-1, "pagecache hit rate"); got < 0.9 {
		t.Errorf("final pagecache hit rate = %v, want ≥ 0.9", got)
	}
	// The bank starts cold, takes over, and its cumulative rate never falls.
	holds(t, res, "early reads fall through to the server; as SMCache pushes blocks, the bank takes over and server traffic stops (§6)")
	holds(t, res, "every pass after the first is served by the bank")
}

func TestExtTelemetryDeterministic(t *testing.T) {
	sameTables(t, plainResult(t, "ext-telemetry"), ExtTelemetry(Options{Scale: ClaimScale}))
}

func TestExtScaleShape(t *testing.T) {
	res := plainResult(t, "ext-scale")
	if res.Table.Rows() != 3 {
		t.Fatalf("rows = %d, want 3 offered rates", res.Table.Rows())
	}
	// The run is only meaningful at its headline cardinality, and every
	// open-loop arrival must have completed.
	if !strings.Contains(res.Table.Title, "at 10000 tenants") {
		t.Fatalf("title %q: want the 10000-tenant population", res.Table.Title)
	}
	holds(t, res, "an open loop offers every arrival whatever the service time, and each completes")
	for i := 0; i < res.Table.Rows(); i++ {
		p50, p95, p99 := res.Table.Value(i, "p50 µs"), res.Table.Value(i, "p95 µs"), res.Table.Value(i, "p99 µs")
		if !(0 < p50 && p50 <= p95 && p95 <= p99) {
			t.Errorf("row %s: quantiles p50 %v p95 %v p99 %v, want 0 < p50 ≤ p95 ≤ p99", res.Table.X(i), p50, p95, p99)
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
	res := ExtFault(Options{Scale: ClaimScale, Observe: true})
	if rows := res.Table.Rows(); rows < 8 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	holds(t, res, "before the first fault all three clients behave alike")
	holds(t, res, "a dead cache node costs a client only the way to the file system directly (§4.4)")
	holds(t, res, "the failover client ejects the dead daemon and readmits it after the reboot")
	holds(t, res, "failover completes more reads through the outage")
	if len(res.Telemetry) != 3 {
		t.Fatalf("telemetry dumps = %d, want 3", len(res.Telemetry))
	}
	// Each detecting column's dump carries the bank's failover counters
	// and the injector's own armed/fired pair.
	for _, d := range res.Telemetry[1:] {
		for _, want := range []string{"bank.ejects", "bank.probes", "bank.fast_fails", "bank.suspects", "fault.armed", "fault.fired"} {
			if !strings.Contains(d.Text, want) {
				t.Errorf("%s: missing %s", d.Title, want)
			}
		}
	}
}

// TestExtDegradeShape checks ext-fault's R=2 column: how replication
// changes the degradation envelope against the single-copy failover bank.
func TestExtDegradeShape(t *testing.T) {
	res := plainResult(t, "ext-fault")
	if rows := res.Table.Rows(); rows < 8 {
		t.Fatalf("rows = %d, want several sampling intervals", rows)
	}
	holds(t, res, "before the first fault all three clients behave alike")
	holds(t, res, "a second copy keeps the bank answering through the faults")
	holds(t, res, "the replicated bank sheds less load to the brick")
	holds(t, res, "reads fail over to the copy, and suspicion catches the gray node")
	holds(t, res, "the replicated client completes more reads")
}
