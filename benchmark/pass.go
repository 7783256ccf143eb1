package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// passConfig selects one measured pass of one workload in this process.
type passConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// SetupBudget is how long an untraced pass keeps setting the workload
	// up on throwaway instances; setupBudget, and 0 in the tests.
	SetupBudget time.Duration
}

const (
	// timedReps is how many times an untraced pass runs the timed phase,
	// each on a fresh deployment; the faster run is the one reported.
	// Interference from the host only ever slows a run. With one run per
	// pass, ten mcd_tcp passes on the 2-vCPU box this was built on spread
	// (interquartile, as a share of the median) 28% in host_ops_per_sec,
	// over the driver's 25% limit; with the faster of two the worst of
	// twenty batches of ten was 15%. The traced pass has no spread to keep
	// and runs it once.
	timedReps = 2
	// driveDur is how long each layer drive loops.
	driveDur = 500 * time.Millisecond
	// An untraced pass sets the workload up at least minSetups times, and
	// again and again on throwaway instances until setupBudget has passed,
	// and reports the median as setup_s: cluster.New alone takes tens of
	// microseconds, and only the median of many holds still from run to
	// run.
	minSetups   = 3
	setupBudget = time.Second
	// gcAfterSetup: a throwaway deployment that took at least this long to
	// set up is collected before the next is built, so that peak RSS never
	// holds two. A microsecond one is left to the pacer: a collection
	// forced before every build times each in a cold heap, and the median
	// of those moved by 49% (cold_scan, 39 to 26 us) between two sets of
	// ten passes whose ops/s moved by 16%.
	gcAfterSetup = 10 * time.Millisecond
)

// result is everything one pass measured.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Stamp     stamp            `json:"stamp"`
	Sizes     map[string]int64 `json:"sizes"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Correct   bool             `json:"correct"`
	Reasons   []string         `json:"reasons,omitempty"`
	TimedS    float64          `json:"timed_s"`
	Values    values           `json:"values"`
	// Digest hashes every virtual-time value and boundary count of the
	// pass; it must be equal across repetitions and between the traced
	// and the untraced pass, and two commits compare with one string
	// equality.
	Digest string   `json:"virt_digest"`
	Notes  []string `json:"notes,omitempty"`
	Spans  []span   `json:"spans,omitempty"`
}

func newLoad(cfg passConfig) load {
	switch cfg.Workload {
	case "stat_hit":
		return newStatHit(cfg.Seconds)
	case "rw_records":
		return newRWRecords(cfg.Seconds)
	case "cold_scan":
		return newColdScan(cfg.Seconds)
	case "open_10k":
		return newOpen10k(cfg.Seconds, cfg.Seed)
	case "mcd_tcp":
		return newMcdTCP(cfg.Seconds, cfg.Seed)
	}
	panic("benchmark: unknown workload " + cfg.Workload)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// timedRun is one run of the timed phase on a fresh deployment.
type timedRun struct {
	elapsed time.Duration
	values  values // the host-time metrics, the workload's own results, the counts
	digest  string
	profile []byte // CPU profile of the timed phase; traced pass only
	failed  int64
	reasons []string
	notes   []string
}

// measure runs ld's timed phase once, reads the counters, and verifies
// the outputs. ld is set up already.
func measure(cfg passConfig, ld load, tr *tracer) (*timedRun, error) {
	if cfg.Trace {
		ld.instrument()
	}
	ops := float64(ld.ops())
	var profile bytes.Buffer
	runtime.GC()
	c0 := ld.counts()
	m0 := mallocs()
	if cfg.Trace {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	sp := tr.start("timed")
	ld.timed()
	elapsed := sp.end()
	if cfg.Trace {
		pprof.StopCPUProfile()
	}
	m1 := mallocs()
	delta := ld.counts().minus(c0)

	v := values{
		"host_ops_per_sec": ops / elapsed.Seconds(),
		"allocs_per_op":    float64(m1-m0) / ops,
	}
	ld.collect(v, delta, ops)

	sp = tr.start("verify")
	var chk checker
	ld.verify(&chk)
	sp.end()
	return &timedRun{elapsed: elapsed, values: v, digest: digest(cfg.Workload, delta, v), profile: profile.Bytes(),
		failed: chk.failed, reasons: chk.reasons, notes: ld.notes()}, nil
}

// runPass measures one workload in this process. An untraced pass builds
// the deployment and runs the timed phase timedReps times and reports the
// faster run; every run is verified and all must produce the same
// virt_digest. setup_s is the median over every set-up of the pass, the
// throwaway ones included. With cfg.Trace the program's instrumentation is
// on and the one timed phase is profiled; what a traced pass needs from
// outside itself (the untraced numbers, the layer drives) is
// finishTraced's business.
func runPass(cfg passConfig) (*result, error) {
	res := &result{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace, Stamp: hostStamp()}
	tr := newTracer(cfg.Workload)
	root := tr.start(cfg.Workload)

	var setups []float64
	var last time.Duration
	build := func() load {
		ld := newLoad(cfg)
		t0 := now()
		ld.setup()
		last = since(t0)
		setups = append(setups, last.Seconds())
		return ld
	}
	reps := timedReps
	if cfg.Trace {
		reps = 1
	}
	var first, best *timedRun
	for rep := 0; rep < reps; rep++ {
		sp := tr.start("setup")
		started := now()
		ld := build()
		for rep == 0 && !cfg.Trace && (len(setups)+reps-1 < minSetups || since(started) < cfg.SetupBudget) {
			ld.close()
			if last >= gcAfterSetup {
				runtime.GC()
			}
			ld = build()
		}
		sp.end()
		res.Sizes = ld.sizes()
		res.Attempted += ld.ops()
		run, err := measure(cfg, ld, tr)
		ld.close()
		if err != nil {
			return nil, err
		}
		// Collect the deployment before the next one is built, so that
		// peak RSS never holds two.
		runtime.GC()
		res.Failed += run.failed
		res.Reasons = append(res.Reasons, run.reasons...)
		if first == nil {
			first = run
		} else if run.digest != first.digest {
			res.Failed++
			res.Reasons = append(res.Reasons, fmt.Sprintf("virt_digest differs between two runs of one pass (%s, %s)", first.digest, run.digest))
		}
		if best == nil || run.elapsed < best.elapsed {
			best = run
		}
	}
	res.TimedS = best.elapsed.Seconds()
	res.Digest = best.digest
	res.Notes = best.notes
	res.Values = best.values
	res.Values["peak_rss_mb"] = peakRSSMB()
	res.Values["setup_s"] = median(setups)
	if cfg.Trace {
		if err := foldCPU(best.profile, res.Values); err != nil {
			return nil, err
		}
	}
	res.settle()
	root.end()
	res.Spans = tr.spans
	return res, nil
}

// settle derives the verdict from the failure count.
func (res *result) settle() {
	res.Values["failed_ops_pct"] = failedPct(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
}

// finishTraced completes a traced pass with what is measured outside it:
// the tracing-off numbers of the untraced passes of the same inputs (one
// child process on a traced run alone, the repetitions in a set) and the
// layer drives. Every untraced pass must carry the traced pass's digest.
func finishTraced(traced *result, untraced []*result, driven values) {
	v := traced.Values
	timed := make([]float64, len(untraced))
	for i, u := range untraced {
		timed[i] = u.TimedS
		if u.Digest != traced.Digest {
			traced.Failed++
			traced.Reasons = append(traced.Reasons, fmt.Sprintf("virt_digest differs between an untraced pass (%s) and the traced pass (%s)", u.Digest, traced.Digest))
		}
	}
	v["trace.overhead_pct"] = 100 * (traced.TimedS/median(timed) - 1)
	// The scoped end-to-end metrics are tracing-off numbers.
	for _, d := range scoped {
		if d.definedOn(traced.Workload) {
			xs := make([]float64, len(untraced))
			for i, u := range untraced {
				xs[i] = u.Values[d.Name]
			}
			v[d.Name] = median(xs)
		}
	}
	for name, x := range driven {
		v[name] = x
	}
	if p50, ok := v["host_p50_us"]; ok {
		v["mcd.serve_share_pct"] = 100 * ratio(v["drive.memcache.text_get_ns"]/1e3, p50)
	}
	traced.settle()
}

// absorb counts another pass's attempts and failures as this one's: a
// traced run alone answers for its untraced child too.
func (res *result) absorb(other *result) {
	res.Attempted += other.Attempted
	res.Failed += other.Failed
	res.Reasons = append(res.Reasons, other.Reasons...)
	res.settle()
}

// digest hashes the pass's virtual-time results and boundary counts,
// each printed with all its digits.
func digest(workload string, d counts, v values) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %+v", workload, d)
	for _, m := range scoped {
		if m.Clock == "virt" && m.definedOn(workload) {
			fmt.Fprintf(h, " %s=%s", m.Name, strconv.FormatFloat(v[m.Name], 'g', -1, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
