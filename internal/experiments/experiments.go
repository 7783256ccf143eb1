// Package experiments regenerates every table and figure in the paper's
// evaluation (§5) and the extensions beyond it, and judges each against what
// is claimed about it. Each experiment builds fresh simulated deployments,
// drives them with the workload package, and returns a metrics.Table whose
// rows and series match the figure, with the figure's claims.
//
// Claims: each statement about a figure is one Claim, declared once beside
// the figure and computed from its finished table (claims.go). An ordering
// reproduces iff it holds; a number iff it is within ±25 % of the paper's,
// the one tolerance. A claim known to deviate carries a Why citing an entry
// of EXPERIMENTS.md's Known deviations. Scorecard sums a run into claims
// reproduced, deviating and unexplained, and the simulation error
// Σ|ln(measured/paper)|.
//
// Scale: the paper's full parameters (262144 files, 64 clients, 1 GB
// files, 6 GB MCDs) are divided by the Scale option so quick runs finish
// in seconds; Scale 1 reproduces the full workload. One function, sized,
// applies it (MODEL.md's Scaling rules). Scaling keeps the
// memory:working-set ratios but not every ordering: a claim that fails at
// some scale from 1024 down to 1 cites a Known deviation that names those
// scales (scripts/scales.sh prints the claims at each). Scale 16 is the
// reference run (results_scale16.txt), and the tests assert every claim at
// 1024.
//
// Declarations: a table-shaped figure is a value (grid.go) — rows crossed
// with systems, each system a column name plus the one recipe that deploys
// it, a shared cell or whole-column measurement, and claims computed from
// the finished table. Its registry entry holds the declaration. Observation
// is declared per column. To add a column, add one system value. The four
// time-series experiments keep their drivers and state their claims there.
//
// Workers: each experiment declares its figure cells as a list of
// independent points, every one building its own sim.Env and deployment;
// Options.Workers > 1 executes them across a host-side worker pool
// (internal/parallel) with results assembled in declaration order, so the
// rendered output is byte-identical to a serial run at any worker count.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/parallel"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Options controls experiment size and observation.
type Options struct {
	// Scale divides the paper's workload parameters. 1 = full paper
	// scale; the default 64 finishes each experiment in seconds.
	Scale int
	// Observe watches selected configurations with everything the tree
	// has — per-layer span tracing with retained operations, the telemetry
	// registry and its sampler, streaming latency histograms, a bounded
	// flight recorder — and attaches what they saw to the Result
	// (Breakdowns, Telemetry, Ops, Timelines, Flight, Tracks). imcareport
	// sets it; imcabench never does. Observation costs no virtual time and
	// schedules nothing: tables and claims are byte-identical with it on or
	// off.
	Observe bool
	// Workers bounds how many experiment points (figure cells — each an
	// isolated sim.Env with its own cluster and workload) run
	// concurrently on the host. 0 or 1 runs serially; results are
	// byte-identical either way because points share nothing and are
	// assembled in declaration order (see internal/parallel).
	Workers int
}

// points runs n experiment points across the option's worker pool. Each
// point is identified by its index; fn must build everything the point
// needs (environment, cluster, workload) locally so points stay isolated.
// Results land in declaration order regardless of worker count.
func points[T any](o Options, n int, fn func(i int) T) []T {
	return parallel.Map(o.Workers, n, fn)
}

// sizes is the testbed at one scale: every size and count a figure reads,
// each the paper's value divided by the scale (or, for the latency
// benchmarks' records, MCDs and ext-scale's arrivals, by the coarser record
// tier) and held at a floor. MODEL.md's Scaling rules table states what each
// field is, its paper value, divisor and floor, and TestModelMatchesCode
// holds the table to sized.
type sizes struct {
	records, arrivals, statFiles, smallFiles, accesses, mdFiles int
	latencyMCD, mcd, server, lustre, file, nfs4G, nfs8G, stream int64
}

// sized is the one place the scale is applied; a Scale below 1 means 64.
func (o Options) sized() sizes {
	s := int64(o.Scale)
	if s < 1 {
		s = 64
	}
	// The record tier grows fourfold past scales 2, 16 and 2048; the last
	// keeps the scales beyond any paper figure, there for cheap structural
	// tests, fast.
	tier := int64(1)
	for _, past := range []int64{2, 16, 2048} {
		if s > past {
			tier *= 4
		}
	}
	by := func(full, floor int64) int64 { return max(full/s, floor) }
	return sizes{
		// The latency benchmarks' family: the paper's over the tier.
		records: int(1024 / tier), arrivals: int(max(128/tier, 2)), latencyMCD: 6 << 30 / tier,
		// Memories and files: the paper's over the scale, at least 1 MB.
		mcd: by(6<<30, 1<<20), server: by(6<<30, 1<<20), lustre: by(2<<30, 1<<20),
		file: by(1<<30, 1<<20), nfs4G: by(4<<30, 1<<20), nfs8G: by(8<<30, 1<<20), stream: by(256<<20, 1<<20),
		// Counts, each at its own floor.
		statFiles: int(by(262144, 256)), smallFiles: int(by(4096, 64)), accesses: int(by(131072, 512)), mdFiles: int(by(16384, 64)),
	}
}

// Result is one regenerated figure.
type Result struct {
	Name  string
	Table *metrics.Table
	// Claims are the statements made about the figure, judged against Table.
	Claims []Claim
	// The remaining fields are what Options.Observe attaches, each present
	// on the experiments that support it (ext-breakdown's Breakdowns are
	// its subject and always present). imcareport renders them: the dumps
	// and timelines into its page, Ops and Tracks into its -trace-out file.
	//
	// Breakdowns are rendered per-layer latency decompositions
	// (optrace.Breakdown.Report).
	Breakdowns []NamedDump
	// Telemetry holds final counter dumps of the instrumented
	// configurations.
	Telemetry []NamedDump
	// Ops lists the retained operations of the instrumented configurations.
	Ops []*optrace.Op
	// Timelines are per-interval percentile series from the streaming
	// histograms.
	Timelines []Timeline
	// Flight holds post-mortem flight-recorder dumps.
	Flight []NamedDump
	// Tracks are sampler counter tracks (per-interval hit rates and
	// percentile traces), merged into the Chrome trace beside the spans.
	Tracks []telemetry.CounterTrack
}

// Timeline is one histogram instrument's per-interval percentile series
// over a run, sampled on the telemetry tick.
type Timeline struct {
	// Title names the run and instrument (e.g. "failover: client0.fuse.read_lat").
	Title string
	// TimesNs are interval-end timestamps in virtual nanoseconds.
	TimesNs []int64
	// Series are percentile traces aligned with TimesNs, in microseconds.
	Series []TimelineSeries
}

// TimelineSeries is one percentile trace of a Timeline.
type TimelineSeries struct {
	Label  string // e.g. "p95_us"
	Values []float64
}

// NamedDump titles one rendered breakdown, telemetry or flight dump for
// display.
type NamedDump struct {
	Title string
	Text  string
}

// Runner regenerates one figure.
type Runner func(Options) *Result

// Experiment pairs a figure id with its runner and description.
type Experiment struct {
	Name        string
	Description string
	Run         Runner
	decl        func(Options) figure // what Run runs; nil for the four time-series experiments
}

// grid is the registry entry of a declared figure.
func grid(name, description string, decl func(Options) figure) Experiment {
	return Experiment{name, description, func(o Options) *Result { return decl(o).run(o) }, decl}
}

// Registry lists every reproducible figure in paper order.
var Registry = []Experiment{
	grid("fig1a", "NFS multi-client IOzone read bandwidth, 4 GB server memory (motivation)", fig1a),
	grid("fig1b", "NFS multi-client IOzone read bandwidth, 8 GB server memory (motivation)", fig1b),
	grid("fig5", "Stat time vs. clients: NoCache, MCD(1/2/4/6), Lustre-4DS", fig5),
	grid("fig6a", "Single-client read latency vs. record size (small), IMCa block sizes + Lustre", fig6a),
	grid("fig6b", "Single-client read latency vs. record size (large)", fig6b),
	grid("fig6c", "Single-client write latency: NoCache vs. IMCa inline vs. threaded", fig6c),
	grid("fig7a", "32-client read latency (small records), 1/2/4 MCDs vs. Lustre", fig7a),
	grid("fig7b", "32-client read latency (medium records), 1/2/4 MCDs vs. Lustre", fig7b),
	grid("fig8a", "Read latency vs. clients, 1 MCD, 64 B records", fig8a),
	grid("fig8b", "Read latency vs. clients, 1 MCD, 1 KB records", fig8b),
	grid("fig8c", "Read latency vs. clients, 1 MCD, 8 KB records", fig8c),
	grid("fig8d", "Read latency vs. clients, 1 MCD, 64 KB records", fig8d),
	grid("fig9", "IOzone read throughput vs. threads, 1/2/4 MCDs (round-robin) vs. NoCache and Lustre-1DS", fig9),
	grid("fig10", "Shared-file read latency vs. clients, 1 MCD vs. NoCache and Lustre-1DS cold", fig10),
	// The paper's §7 future-work directions, implemented as extensions.
	grid("ext-rdma", "Extension (§7): RDMA transport for the cache bank vs IPoIB", extRDMA),
	grid("ext-hash", "Extension (§7): key distribution — CRC32 vs modulo vs ketama consistent hashing", extHash),
	grid("ext-lustre", "Extension (§7): cache bank on Lustre via client-populated CMCache", extLustre),
	grid("ext-sharing", "Extension (§7): coherent client cache vs cache bank under write/read sharing", extSharing),
	grid("ext-smallfile", "Extension (§3): small-file workload; the purge-on-open trade-off", extSmallFiles),
	grid("ext-mdtest", "Extension (§5.2): mdtest-style create/stat/unlink metadata rates", extMDTest),
	grid("ext-bricks", "Extension (§2.1): scaling by storage bricks vs scaling by cache nodes", extBricks),
	{"ext-breakdown", "Extension (§6): per-layer latency decomposition of one warm read at each block size", ExtBreakdown, nil},
	{"ext-telemetry", "Extension (§6): MCD-bank vs server-pagecache hit rate over virtual time during warm-up", ExtTelemetry, nil},
	{"ext-fault", "Extension (§4.4): graceful degradation through a node crash, a partition and a gray node: plain client vs client failover vs R=2 bank", ExtFault, nil},
	{"ext-scale", "Extension: 10k open-loop tenants on the task engine — tail latency, bank hit rate, hot-key skew", ExtScale, nil},
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// powersOfTwo returns {from, from*2, ..., to}.
func powersOfTwo(from, to int64) []int64 {
	var out []int64
	for v := from; v <= to; v *= 2 {
		out = append(out, v)
	}
	return out
}

func usPerOp(d sim.Duration) float64 { return float64(d) / 1e3 }

func fmtSize(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// timelineFrom builds the percentile timeline of one histogram instrument
// from a finished sampler run, one trace per rung of telemetry.Quantiles;
// sample times are reported relative to start.
func timelineFrom(smp *telemetry.Sampler, start sim.Time, title, name string) Timeline {
	tl := Timeline{Title: title}
	for _, at := range smp.Times() {
		tl.TimesNs = append(tl.TimesNs, int64(at.Sub(start)))
	}
	for _, q := range telemetry.Quantiles {
		tl.Series = append(tl.Series, TimelineSeries{Label: q.Label, Values: smp.QuantileSeries(name, q.Q)})
	}
	return tl
}

// textOf renders a registry's or a flight recorder's Dump, or a
// breakdown's Report, for attachment to a Result.
func textOf(dump func(w io.Writer)) string {
	var sb strings.Builder
	dump(&sb)
	return sb.String()
}
