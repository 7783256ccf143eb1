package telemetry

import (
	"imca/internal/metrics"
	"imca/internal/sim"
)

// Sampler snapshots a registry's instruments at fixed virtual intervals,
// accumulating one time series per instrument. It rides the kernel's tick
// hook (sim.Env.SetTick), which fires between event dispatches without
// scheduling anything, so sampling can never advance the virtual clock or
// change event ordering: a sampled run is byte-identical to an unsampled
// one.
//
// Samples are stamped at exact interval boundaries. The hook fires when the
// clock first reaches or passes a boundary, and because simulation state
// only changes when events run, the values read then are exactly the state
// of the system at the boundary instant.
// Hist instruments additionally get a cumulative histogram snapshot per
// sample (a fixed-size value copy, no per-observation retention), from
// which HistIntervals and QuantileSeries derive per-interval bucket
// deltas — the constant-memory replacement for retaining whole ops via
// optrace KeepOps when all an experiment wants is a percentile timeline.
type Sampler struct {
	env    *sim.Env
	reg    *Registry
	times  []sim.Time
	series map[string][]float64
	hists  map[string][]metrics.Histogram
}

// NewSampler installs a sampler on env reading reg every interval of
// virtual time. It replaces any previously installed tick observer.
func NewSampler(env *sim.Env, reg *Registry, interval sim.Duration) *Sampler {
	s := &Sampler{
		env: env, reg: reg,
		series: make(map[string][]float64),
		hists:  make(map[string][]metrics.Histogram),
	}
	env.SetTick(interval, s.Sample)
	return s
}

// Sample records one snapshot stamped at. The kernel calls it at each
// boundary; callers may also invoke it directly (e.g. once after the final
// Run, to close the series at the end of the workload). Out-of-order or
// duplicate stamps are ignored so a manual final sample is always safe.
func (s *Sampler) Sample(at sim.Time) {
	if n := len(s.times); n > 0 && at <= s.times[n-1] {
		return
	}
	s.times = append(s.times, at)
	for _, in := range s.reg.order {
		col := s.series[in.name]
		// Instruments registered after sampling began backfill zeros so
		// every series stays aligned with the time axis.
		for len(col) < len(s.times)-1 {
			col = append(col, 0)
		}
		s.series[in.name] = append(col, in.Value())
		if in.kind != KindHist {
			continue
		}
		snaps := s.hists[in.name]
		for len(snaps) < len(s.times)-1 {
			snaps = append(snaps, metrics.Histogram{})
		}
		s.hists[in.name] = append(snaps, in.hist.Snapshot())
	}
}

// Stop uninstalls the sampler from its environment; recorded series remain
// readable.
func (s *Sampler) Stop() { s.env.SetTick(0, nil) }

// Len returns the number of samples taken.
func (s *Sampler) Len() int { return len(s.times) }

// Times returns the sample timestamps.
func (s *Sampler) Times() []sim.Time {
	return append([]sim.Time(nil), s.times...)
}

// Series returns the named instrument's samples, aligned with Times
// (nil if the instrument was never sampled).
func (s *Sampler) Series(name string) []float64 {
	col, ok := s.series[name]
	if !ok {
		return nil
	}
	out := append([]float64(nil), col...)
	// A series can be short if its instrument appeared mid-run and no
	// sample has fired since; pad for alignment.
	for len(out) < len(s.times) {
		out = append(out, 0)
	}
	return out
}

// HistSeries returns the named hist instrument's cumulative snapshots,
// aligned with Times (nil if the instrument was never sampled or is not
// a hist).
func (s *Sampler) HistSeries(name string) []metrics.Histogram {
	snaps, ok := s.hists[name]
	if !ok {
		// A hist registered after the last sample has no snapshots yet;
		// align it with zeros like Series does for scalars.
		if in := s.reg.Get(name); in == nil || in.kind != KindHist {
			return nil
		}
	}
	out := append([]metrics.Histogram(nil), snaps...)
	for len(out) < len(s.times) {
		out = append(out, metrics.Histogram{})
	}
	return out
}

// HistIntervals returns the per-interval bucket deltas of the named hist
// instrument: element i holds exactly the observations recorded between
// sample i-1 and sample i (element 0 counts from the start of the run).
func (s *Sampler) HistIntervals(name string) []metrics.Histogram {
	snaps := s.HistSeries(name)
	if snaps == nil {
		return nil
	}
	out := make([]metrics.Histogram, len(snaps))
	prev := metrics.Histogram{}
	for i, cur := range snaps {
		out[i] = metrics.Delta(cur, prev)
		prev = cur
	}
	return out
}

// QuantileSeries returns the q-quantile of each sampling interval of the
// named hist instrument, in microseconds, aligned with Times. Intervals
// with no observations report 0.
func (s *Sampler) QuantileSeries(name string, q float64) []float64 {
	ivs := s.HistIntervals(name)
	if ivs == nil {
		return nil
	}
	out := make([]float64, len(ivs))
	for i := range ivs {
		if ivs[i].Count() == 0 {
			continue
		}
		out[i] = usPerDuration(ivs[i].Quantile(q))
	}
	return out
}

// kindsFor resolves each name's kind (unregistered names count as gauges).
func (s *Sampler) kindsFor(names []string) []Kind {
	kinds := make([]Kind, len(names))
	for i, n := range names {
		kinds[i] = KindGauge
		if in := s.reg.Get(n); in != nil {
			kinds[i] = in.Kind()
		}
	}
	return kinds
}

// CounterTracks converts the recorded series of the named instruments into
// Perfetto counter tracks for WriteChromeTrace. Scalar instruments
// contribute one track of their sampled values; hist instruments expand into
// one per-interval microsecond track per rung of Quantiles.
func (s *Sampler) CounterTracks(names ...string) []CounterTrack {
	kinds := s.kindsFor(names)
	times := s.Times()
	var out []CounterTrack
	for i, n := range names {
		if kinds[i] == KindHist {
			for _, q := range Quantiles {
				out = append(out, CounterTrack{
					Name:   n + "." + q.Label,
					Times:  times,
					Values: s.QuantileSeries(n, q.Q),
				})
			}
			continue
		}
		out = append(out, CounterTrack{Name: n, Times: times, Values: s.Series(n)})
	}
	return out
}
