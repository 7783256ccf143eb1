package experiments

import (
	"fmt"
	"time"

	"imca/internal/cluster"
	"imca/internal/fault"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// The dataset and sampling grain of a faulted run.
const (
	faultRecSize  = int64(2048)
	faultFileSize = int64(128 << 10)
	faultInterval = 5 * time.Millisecond
)

// faulted is one finished run of faultedReads.
type faulted struct {
	smp     *telemetry.Sampler // stopped; the experiment cuts its own series from it
	times   []sim.Duration     // sample instants, relative to the window's start
	hitRate []float64          // per-interval bank hit rate
	bank    memcache.Stats
	reads   uint64

	// The observation surfaces, filled under Options.Observe.
	dump, flight string
	timeline     Timeline
	tracks       []telemetry.CounterTrack
}

// faultedReads is the run ext-fault and ext-degrade share. It deploys one
// client over two 64 MB MCDs with 2 KB blocks (copts carries the detection
// and replication settings under test), instruments the deployment, writes
// one 128 KB file at path in 2 KB records and reads it once to warm the
// bank, then arms plan and has one process call each — the experiment's
// operations on the record at off — until window closes, sampling the
// registry every 5 ms. name ("ext-fault") labels processes, panics and,
// with run (which of the experiment's runs this is), the timeline;
// counters, if not nil, registers the experiment's own instruments after
// reader.ops.
func faultedReads(o Options, name, run, path string, copts cluster.Options, plan *fault.Plan, window sim.Duration,
	counters func(reg *telemetry.Registry), each func(p *sim.Proc, fs gluster.FS, fd gluster.FD, off int64)) faulted {
	copts.MCDs, copts.MCDMemBytes, copts.BlockSize = 2, 64<<20, faultRecSize
	c := glusterSys(name, copts).deploy(o, 1).cluster
	env, fs := c.Env, c.Mounts[0].FS
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	var reads uint64
	reg.Counter("reader.ops", func() uint64 { return reads })
	if counters != nil {
		counters(reg)
	}
	check := func(what string, err error) {
		if err != nil {
			panic(fmt.Sprintf("%s: %s: %v", name, what, err))
		}
	}

	// Produce the dataset and warm the bank (one full pass), untimed.
	var fd gluster.FD
	env.Process(name+"-warm", func(p *sim.Proc) {
		fd = writeFile(p, fs, name, path, faultFileSize, faultRecSize)
		for off := int64(0); off < faultFileSize; off += faultRecSize {
			_, err := fs.Read(p, fd, off, faultRecSize)
			check("warm read", err)
		}
	})
	env.Run()

	// Measurement: arm the plan relative to now and iterate until the
	// window closes, sampling each interval.
	start := env.Now()
	in := fault.NewInjector(c)
	in.Register(reg, "fault")
	var fr *flight.Recorder
	if o.Observe {
		fr = flight.New(4096)
		c.SetFlight(fr)
		in.SetFlight(fr)
	}
	check("arm", in.Arm(plan))
	smp := telemetry.NewSampler(env, reg, faultInterval)
	env.Process(name+"-read", func(p *sim.Proc) {
		for off := int64(0); p.Now() < start.Add(window); off = (off + faultRecSize) % faultFileSize {
			each(p, fs, fd, off)
			reads++
		}
	})
	env.Run()
	smp.Stop()

	f := faulted{smp: smp, bank: c.BankStats(), reads: reads,
		hitRate: ratio(delta(smp.Series("bank.hits")), delta(smp.Series("bank.gets")))}
	for _, at := range smp.Times() {
		f.times = append(f.times, at.Sub(start))
	}
	if o.Observe {
		f.dump, f.flight = textOf(reg.Dump), textOf(fr.Dump)
		f.timeline = timelineFrom(smp, start, name+" "+run+": client0.fuse.read_lat", "client0.fuse.read_lat")
		f.tracks = smp.CounterTracks("bank.hit_rate", "client0.fuse.read_lat")
	}
	return f
}

// attach adds the run's observation surfaces to res, titled by run
// ("ext-fault plain client"). Two runs of one experiment share instrument
// names, and one set of counter tracks per export keeps Perfetto readable,
// so only the run the experiment is about passes tracks.
func (f faulted) attach(res *Result, run string, tracks bool) {
	res.Telemetry = append(res.Telemetry, NamedDump{Title: run + " final counters", Text: f.dump})
	res.Timelines = append(res.Timelines, f.timeline)
	res.Flight = append(res.Flight, NamedDump{Title: run + " flight recorder", Text: f.flight})
	if tracks {
		res.Tracks = append(res.Tracks, f.tracks...)
	}
}

// ratio returns num/den elementwise, 0 where den is 0.
func ratio(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		if den[i] > 0 {
			out[i] = num[i] / den[i]
		}
	}
	return out
}
