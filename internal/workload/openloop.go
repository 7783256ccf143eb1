package workload

import (
	"fmt"
	"math"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/xrand"
)

// OpenLoopOptions parameterizes the open-loop multi-tenant generator.
// Unlike the closed-loop drivers above — where each client issues its next
// operation only after the previous one returns, so a slow system slows
// its own load — tenants here fire reads on a Poisson arrival process
// whether or not earlier reads have completed. Queueing delay therefore
// shows up in the measured latency tail instead of silently throttling the
// offered load, which is what makes ten-thousand-client tail-latency
// measurements meaningful.
type OpenLoopOptions struct {
	Dir string
	// Files in the working set and each file's size; every arrival reads
	// one whole file chosen by a Zipf(ZipfS) popularity draw.
	Files    int
	FileSize int64
	// ZipfS is the Zipf exponent (default 1.0).
	ZipfS float64
	// Tenants is the number of open-loop clients. Each is one sim.Task;
	// there is no per-tenant goroutine, which is what makes 10k+ tenants
	// cheap. Tenants round-robin over the mounts.
	Tenants int
	// ArrivalsPerTenant bounds the run: each tenant fires this many reads.
	ArrivalsPerTenant int
	// MeanInterarrival is the per-tenant mean of the exponential
	// interarrival distribution (aggregate offered rate is
	// Tenants/MeanInterarrival).
	MeanInterarrival sim.Duration
	// Seed makes every tenant's arrival and key stream reproducible;
	// tenant streams are mutually independent.
	Seed uint64
}

// OpenLoopRun is a staged open-loop workload. Latency and the counters
// fill in while the run executes, so callers may hang telemetry gauges off
// them before calling Run (e.g. to tick-sample latency quantiles).
type OpenLoopRun struct {
	// Latency holds one observation per completed read.
	Latency *metrics.Histogram
	// Issued and Completed count arrivals fired and reads finished.
	Issued, Completed uint64
	// KeyReads counts arrivals per file index (the hot-key profile
	// actually offered, for skew reporting).
	KeyReads []uint64
	// Elapsed is the virtual time from the first arrival's scheduling to
	// the last completion, set by Run.
	Elapsed sim.Duration

	env     *sim.Env
	started sim.Time
	opts    OpenLoopOptions
	zipf    *xrand.Zipf
}

// PrepareOpenLoop builds the working set (create + write + one open per
// file per mount, untimed) and stages one task per tenant. The returned
// run starts executing at the caller's next env.Run; use Run to drive it
// to completion.
//
// The generator requires mounts that are gluster.TaskFS (gluster.AsTaskFS),
// not a blocking-only wrapper: an open-loop tenant has several reads in
// flight at once, which one process awaiting its operations cannot
// express, and a process per arrival would defeat the point at this
// cardinality. The set-up passes stay ordinary blocking
// code: they create, fill and open through the mounts' blocking methods,
// so a mount value may refine those (warm a cache in Open, say).
func PrepareOpenLoop(env *sim.Env, mounts []gluster.FS, opts OpenLoopOptions) *OpenLoopRun {
	if opts.Files <= 0 || opts.FileSize <= 0 || opts.Tenants <= 0 ||
		opts.ArrivalsPerTenant <= 0 || opts.MeanInterarrival <= 0 {
		panic("workload: bad open-loop geometry")
	}
	if opts.ZipfS == 0 {
		opts.ZipfS = 1.0
	}
	tms := make([]gluster.TaskFS, len(mounts))
	for i, fs := range mounts {
		if tms[i] = gluster.AsTaskFS(fs); tms[i] == nil {
			panic("workload: open-loop generator requires task-capable mounts")
		}
	}

	// Working set: create and fill through mounts[0].
	env.Process("openloop-setup", func(p *sim.Proc) {
		fs := mounts[0]
		for i := 0; i < opts.Files; i++ {
			fd, err := fs.Create(p, FilePath(opts.Dir, i))
			if err != nil {
				panic(fmt.Sprintf("workload: create: %v", err))
			}
			if _, err := fs.Write(p, fd, 0, blob.Synthetic(uint64(i)+1, 0, opts.FileSize)); err != nil {
				panic(fmt.Sprintf("workload: write: %v", err))
			}
			if err := fs.Close(p, fd); err != nil {
				panic(fmt.Sprintf("workload: close: %v", err))
			}
		}
	})
	env.Run()

	// Every mount opens every file once; tenants share their mount's
	// descriptors (reads carry explicit offsets, so sharing is safe).
	fds := make([][]gluster.FD, len(mounts))
	env.Process("openloop-open", func(p *sim.Proc) {
		for mi, fs := range mounts {
			fds[mi] = make([]gluster.FD, opts.Files)
			for i := range fds[mi] {
				fd, err := fs.Open(p, FilePath(opts.Dir, i))
				if err != nil {
					panic(fmt.Sprintf("workload: open: %v", err))
				}
				fds[mi][i] = fd
			}
		}
	})
	env.Run()

	run := &OpenLoopRun{
		Latency:  &metrics.Histogram{},
		KeyReads: make([]uint64, opts.Files),
		env:      env,
		started:  env.Now(),
		opts:     opts,
		// One CDF table shared by every tenant: per-tenant tables would cost
		// O(Files) memory times ten thousand tenants. Draws consume only the
		// tenant's own stream.
		zipf: xrand.NewZipf(xrand.New(opts.Seed), opts.ZipfS, opts.Files),
	}
	for ci := 0; ci < opts.Tenants; ci++ {
		tn := &tenant{run: run, seed: opts.Seed + uint64(ci)*0x9e3779b97f4a7c15 + 1,
			fs: tms[ci%len(tms)], fds: fds[ci%len(tms)]}
		tn.fnArrive = tn.arrive
		env.StartTask("openloop", tn.begin)
	}
	return run
}

// tenant is one open-loop client: its task, its arrival and key stream, its
// mount's descriptors, and the free list of its arrival frames, which grows
// to the most reads the tenant has had in flight at once and no further.
type tenant struct {
	run            *OpenLoopRun
	seed           uint64
	fs             gluster.TaskFS
	fds            []gluster.FD
	t              *sim.Task
	rng            *xrand.Rand
	fired, pending int
	free           sim.Free[arrival]
	fnArrive       func()
}

// arrival is one read in flight, with its completion prebound as a method
// value, so a steady-state arrival allocates nothing. It returns to its
// tenant's free list when the read completes.
type arrival struct {
	tn     *tenant
	start  sim.Time
	fnDone func(blob.Blob, error)
}

// begin is the tenant task's body: it schedules the first arrival.
func (tn *tenant) begin(t *sim.Task) {
	tn.t = t
	tn.rng = xrand.New(tn.seed)
	t.Sleep(expInterarrival(tn.rng, tn.run.opts.MeanInterarrival), tn.fnArrive)
}

// arrive fires one read and, open loop, schedules the next arrival now, not
// when the read completes.
func (tn *tenant) arrive() {
	run, t := tn.run, tn.t
	tn.fired++
	idx := run.zipf.DrawFrom(tn.rng)
	run.KeyReads[idx]++
	run.Issued++
	tn.pending++
	a := tn.free.Pop()
	if a == nil {
		a = &arrival{tn: tn}
		a.fnDone = a.done
	}
	a.start = t.Now()
	tn.fs.ReadT(t, tn.fds[idx], 0, run.opts.FileSize, a.fnDone)
	if tn.fired < run.opts.ArrivalsPerTenant {
		t.Sleep(expInterarrival(tn.rng, run.opts.MeanInterarrival), tn.fnArrive)
	}
}

func (a *arrival) done(data blob.Blob, err error) {
	tn := a.tn
	run := tn.run
	if err != nil || data.Len() != run.opts.FileSize {
		panic(fmt.Sprintf("workload: open-loop read %d bytes, %v", data.Len(), err))
	}
	run.Latency.Observe(tn.t.Now().Sub(a.start))
	run.Completed++
	tn.pending--
	tn.free.Push(a)
	if tn.fired == run.opts.ArrivalsPerTenant && tn.pending == 0 {
		tn.t.End()
	}
}

// Run drives a prepared open-loop workload to completion.
func (r *OpenLoopRun) Run() {
	r.env.Run()
	r.Elapsed = r.env.Now().Sub(r.started)
}

// expInterarrival draws an exponential interarrival gap by inversion.
func expInterarrival(r *xrand.Rand, mean sim.Duration) sim.Duration {
	u := r.Float64()
	return sim.Duration(-math.Log(1-u) * float64(mean))
}
