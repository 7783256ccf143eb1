// Package workload implements the paper's benchmark drivers: the stat
// benchmark (§5.2), the single/multi-client latency benchmark (§5.3–5.4),
// the shared-file read/write-sharing benchmark (§5.6), and an IOzone-like
// streaming throughput benchmark (§5.5). Drivers operate on gluster.FS
// mounts, so the same code measures GlusterFS, IMCa, NFS, and Lustre.
//
// # Client bodies
//
// A closed-loop driver's client is a process (sim.Proc) running a
// straight-line loop of blocking gluster.FS calls, with barriers between
// stages — the form the paper gives its benchmarks in. Two bodies stay in
// continuation style against gluster.TaskFS: statBench, whose stat hits run
// on the zero-alloc task path (a blocking Stat copies the lent *Stat, one
// allocation per stat), and PrepareOpenLoop's tenants, each of which keeps
// several reads in flight. startClient runs statBench's body as a sim.Task
// on a task-ready mount and on a process awaiting it otherwise; the two
// consume kernel schedules identically.
package workload

import (
	"fmt"
	"strconv"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// startClient starts one statBench client running body, whose operations go
// to tfs (a mount held through gluster.Lift): as a task when the mount's
// whole stack is continuation-style, otherwise on a process awaiting the
// same body.
func startClient(env *sim.Env, name string, tfs gluster.TaskFS, body func(t *sim.Task)) {
	if tfs.TaskReady() {
		env.StartTask(name, body)
		return
	}
	env.Process(name, func(p *sim.Proc) { p.Await(body) })
}

// CreateFiles makes n empty files "<dir>/f<k>" through fs (the stat
// benchmark's untimed first stage). It runs the simulation to completion.
func CreateFiles(env *sim.Env, fs gluster.FS, dir string, n int) {
	paths := FilePaths(dir, n)
	env.Process("create-files", func(p *sim.Proc) {
		for i, path := range paths {
			fd, err := fs.Create(p, path)
			if err != nil {
				panic(fmt.Sprintf("workload: create %d: %v", i, err))
			}
			if err := fs.Close(p, fd); err != nil {
				panic(fmt.Sprintf("workload: close %d: %v", i, err))
			}
		}
	})
	env.Run()
}

// FilePath names the i'th benchmark file in dir: the bytes of
// fmt.Sprintf("%s/f%06d", dir, i), built without fmt's boxing and parsing
// (the stat benchmark names every file it creates and stats).
func FilePath(dir string, i int) string {
	var scratch [64]byte
	b := append(scratch[:0], dir...)
	b = append(b, "/f"...)
	u, width := uint64(i), 6
	if i < 0 {
		b = append(b, '-')
		u, width = -u, width-1
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// FilePaths names the first n benchmark files in dir, formatted once up
// front so per-operation benchmark loops pay no formatting cost. A stat
// benchmark at scale issues clients×files operations over the same n names;
// building them per operation was the workload driver's dominant host-side
// allocation.
func FilePaths(dir string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = FilePath(dir, i)
	}
	return out
}

// StatBench runs the timed stage of the stat benchmark: every client stats
// every one of the n files; the reported result is the maximum time any
// client needed (the paper's metric). It samples every file; see
// StatBenchStrided for the reduced-event variant.
func StatBench(env *sim.Env, mounts []gluster.FS, dir string, n int) sim.Duration {
	return statBench(env, mounts, FilePaths(dir, n), 1)
}

// StatBenchStrided is StatBench visiting only every stride'th file: a
// stratified sample of the same name population, in the same scan order,
// against the same created namespace. Virtual durations scale by roughly
// the stride (each client does 1/stride the work), while per-point host
// cost drops by the same factor. A stride of 1 is exactly StatBench.
func StatBenchStrided(env *sim.Env, mounts []gluster.FS, dir string, n, stride int) sim.Duration {
	if stride < 1 {
		stride = 1
	}
	paths := make([]string, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		paths = append(paths, FilePath(dir, i))
	}
	return statBench(env, mounts, paths, stride)
}

// statBench stats every path from every mount. The client body keeps one
// continuation pair per client — the per-operation closure a
// naive recursion would allocate is exactly the kind of hot-path garbage
// the benchmark exists to measure around.
func statBench(env *sim.Env, mounts []gluster.FS, paths []string, stride int) sim.Duration {
	start := sim.NewBarrier(env, len(mounts))
	var maxElapsed sim.Duration
	record := func(t0, now sim.Time) {
		if d := now.Sub(t0); d > maxElapsed {
			maxElapsed = d
		}
	}
	for _, fs := range mounts {
		tfs := gluster.Lift(fs)
		startClient(env, "statbench", tfs, func(t *sim.Task) {
			start.WaitT(t, func() {
				t0 := t.Now()
				i := 0
				var step func()
				onStat := func(_ *gluster.Stat, err error) {
					if err != nil {
						panic(fmt.Sprintf("workload: stat %d: %v", i*stride, err))
					}
					i++
					step()
				}
				step = func() {
					if i == len(paths) {
						record(t0, t.Now())
						t.End()
						return
					}
					tfs.StatT(t, paths[i], onStat)
				}
				step()
			})
		})
	}
	env.Run()
	return maxElapsed
}

// LatencyOptions parameterizes the latency benchmark.
type LatencyOptions struct {
	// Dir is the working directory; each client uses its own file,
	// unless Shared selects the read/write-sharing variant where only
	// client 0 writes and everyone reads the same file.
	Dir string
	// RecordSizes to sweep (the paper: 1 byte to 64 KB+, powers of two).
	RecordSizes []int64
	// Records per measurement (the paper uses 1024).
	Records int
	Shared  bool
	// AfterWrite runs between the write and read stages (e.g. dropping
	// client caches for a Lustre cold-cache run).
	AfterWrite func()
	// BeforeReadSize runs before each record size's read measurement
	// (all clients held at a barrier), so cold-cache runs stay cold for
	// every record size rather than only the first.
	BeforeReadSize func(recordSize int64)
	// Trace wraps every measured record operation in an optrace
	// operation with a root span, accumulating per-layer latency
	// decompositions by record size. Tracing costs no virtual time, so
	// the measured latencies are identical with it on or off.
	Trace bool
	// KeepOps additionally retains every finished operation (implying
	// Trace) so the run can be exported as a trace file.
	KeepOps bool
}

// LatencyResult reports average per-operation times by record size.
type LatencyResult struct {
	Write map[int64]sim.Duration
	Read  map[int64]sim.Duration
	// WriteBreakdowns and ReadBreakdowns hold the per-record-size
	// latency decompositions accumulated when LatencyOptions.Trace is
	// set (nil otherwise).
	WriteBreakdowns map[int64]*optrace.Breakdown
	ReadBreakdowns  map[int64]*optrace.Breakdown
	// Ops lists every finished operation when LatencyOptions.KeepOps is
	// set: all writes then all reads, record sizes in sweep order,
	// completion order within a size.
	Ops []*optrace.Op
}

// traceStart begins a traced operation on the client process when tracing
// is enabled and opens its root span; both helpers are no-ops with a nil
// collector slice. The task a blocking call awaits shares the process's
// context slot, so the layers' spans nest under this root.
func traceStart(p *sim.Proc, cols []*optrace.Collector, si int, name string) *optrace.Span {
	if cols == nil {
		return nil
	}
	cols[si].Begin(p, name)
	return optrace.StartSpan(p, optrace.LayerOp, name)
}

// traceEnd closes the root span and folds the finished operation into its
// record size's breakdown.
func traceEnd(p *sim.Proc, cols []*optrace.Collector, si int, root *optrace.Span) {
	if cols == nil {
		return
	}
	root.End(p)
	cols[si].End(p)
}

// newCollectors returns one collector per record size (nil unless traced).
func newCollectors(on, keep bool, n int) []*optrace.Collector {
	if !on && !keep {
		return nil
	}
	cols := make([]*optrace.Collector, n)
	for i := range cols {
		cols[i] = optrace.NewCollector()
		cols[i].Keep = keep
	}
	return cols
}

// collectOps appends the collectors' retained operations in sweep order.
func collectOps(dst []*optrace.Op, cols []*optrace.Collector) []*optrace.Op {
	for _, c := range cols {
		dst = append(dst, c.Ops()...)
	}
	return dst
}

// breakdownMap collects the per-size breakdowns keyed by record size.
func breakdownMap(cols []*optrace.Collector, sizes []int64) map[int64]*optrace.Breakdown {
	if cols == nil {
		return nil
	}
	out := make(map[int64]*optrace.Breakdown, len(sizes))
	for si, r := range sizes {
		out[r] = cols[si].Breakdown()
	}
	return out
}

// Latency runs the paper's latency benchmark: for each record size, every
// writer writes Records sequential records from the start of its file
// (separated by barriers), then the benchmark returns to the beginning and
// repeats with reads. Reported times are averaged over records and over
// clients.
func Latency(env *sim.Env, mounts []gluster.FS, opts LatencyOptions) LatencyResult {
	if opts.Records <= 0 {
		opts.Records = 1024
	}
	if len(opts.RecordSizes) == 0 {
		panic("workload: no record sizes")
	}
	nc := len(mounts)

	// Open files on every client up front (the fd↔path database is
	// populated here; for IMCa this is also where open-purges land,
	// before any data is written).
	fds := make([]gluster.FD, nc)
	env.Process("latency-open", func(p *sim.Proc) {
		for ci, fs := range mounts {
			path := FilePath(opts.Dir, ci)
			if opts.Shared {
				path = opts.Dir + "/shared"
			}
			var err error
			if opts.Shared && ci > 0 {
				fds[ci], err = fs.Open(p, path)
			} else {
				fds[ci], err = fs.Create(p, path)
			}
			if err != nil {
				panic(fmt.Sprintf("workload: open client %d: %v", ci, err))
			}
		}
	})
	env.Run()

	// stage sweeps the record sizes on the first clients mounts: for each
	// size a barrier (then, before reads, BeforeReadSize on client 0 and a
	// second barrier, every client held), the records, a barrier. It returns
	// the mean time per record by size and the stage's collectors.
	stage := func(verb string, clients int) (map[int64]sim.Duration, []*optrace.Collector) {
		name, write := "lat-"+verb, verb == "write"
		totals := make([]sim.Duration, len(opts.RecordSizes))
		cols := newCollectors(opts.Trace, opts.KeepOps, len(opts.RecordSizes))
		bar := sim.NewBarrier(env, clients)
		for ci, fs := range mounts[:clients] {
			seed := uint64(ci) + 1
			if opts.Shared {
				seed = 1
			}
			env.Process(name, func(p *sim.Proc) {
				for si, r := range opts.RecordSizes {
					bar.Wait(p)
					if !write && opts.BeforeReadSize != nil {
						if ci == 0 {
							opts.BeforeReadSize(r)
						}
						bar.Wait(p)
					}
					t0 := p.Now()
					for n := 0; n < opts.Records; n++ {
						off := int64(n) * r
						root := traceStart(p, cols, si, verb)
						var data blob.Blob
						var err error
						if write {
							_, err = fs.Write(p, fds[ci], off, blob.Synthetic(seed, off, r))
						} else {
							data, err = fs.Read(p, fds[ci], off, r)
						}
						traceEnd(p, cols, si, root)
						if err != nil {
							panic(fmt.Sprintf("workload: %s: %v", verb, err))
						}
						if data.Len() > 0 && data.At(0) != blob.Synthetic(seed, off, 1).At(0) {
							panic("workload: read returned wrong data")
						}
					}
					totals[si] += p.Now().Sub(t0)
					bar.Wait(p)
				}
			})
		}
		env.Run()
		means := make(map[int64]sim.Duration, len(opts.RecordSizes))
		for si, r := range opts.RecordSizes {
			means[r] = totals[si] / sim.Duration(opts.Records*clients)
		}
		return means, cols
	}

	// Only client 0 writes the shared file; every client reads.
	writers := nc
	if opts.Shared {
		writers = 1
	}
	var res LatencyResult
	var wcols, rcols []*optrace.Collector
	res.Write, wcols = stage("write", writers)
	if opts.AfterWrite != nil {
		opts.AfterWrite()
	}
	res.Read, rcols = stage("read", nc)
	res.WriteBreakdowns = breakdownMap(wcols, opts.RecordSizes)
	res.ReadBreakdowns = breakdownMap(rcols, opts.RecordSizes)
	if opts.KeepOps {
		res.Ops = collectOps(collectOps(nil, wcols), rcols)
	}
	return res
}

// ThroughputOptions parameterizes the IOzone-like streaming benchmark.
type ThroughputOptions struct {
	Dir        string
	FileSize   int64
	RecordSize int64
	// AfterWrite runs between the write and read stages.
	AfterWrite func()
	// ReRead adds a second read pass (IOzone's re-read test), which
	// measures the fully-warm path.
	ReRead bool
}

// ThroughputResult reports aggregate bandwidth in bytes per second of
// virtual time.
type ThroughputResult struct {
	WriteBps  float64
	ReadBps   float64
	ReReadBps float64
}

// Throughput streams FileSize bytes per client (each to its own file) in
// RecordSize units: a write pass, then a timed read pass. Aggregate
// bandwidth divides total bytes by the slowest client's elapsed time, as
// IOzone's throughput mode reports.
func Throughput(env *sim.Env, mounts []gluster.FS, opts ThroughputOptions) ThroughputResult {
	if opts.RecordSize <= 0 || opts.FileSize <= 0 || opts.FileSize%opts.RecordSize != 0 {
		panic("workload: bad throughput geometry")
	}
	nc := len(mounts)
	fds := make([]gluster.FD, nc)

	// pass runs one timed stream over every client's file and returns its
	// aggregate bandwidth; the write pass creates the files first.
	pass := func(name string, write bool) float64 {
		bar := sim.NewBarrier(env, nc)
		var start, end sim.Time
		for ci, fs := range mounts {
			env.Process(name, func(p *sim.Proc) {
				if write {
					fd, err := fs.Create(p, FilePath(opts.Dir, ci))
					if err != nil {
						panic(fmt.Sprintf("workload: create: %v", err))
					}
					fds[ci] = fd
				}
				bar.Wait(p)
				if start == 0 {
					start = p.Now()
				}
				for off := int64(0); off < opts.FileSize; off += opts.RecordSize {
					if write {
						if _, err := fs.Write(p, fds[ci], off, blob.Synthetic(uint64(ci)+1, off, opts.RecordSize)); err != nil {
							panic(fmt.Sprintf("workload: write: %v", err))
						}
					} else if data, err := fs.Read(p, fds[ci], off, opts.RecordSize); err != nil || data.Len() != opts.RecordSize {
						panic(fmt.Sprintf("workload: read %d bytes at %d: %v", data.Len(), off, err))
					}
				}
				end = max(end, p.Now())
			})
		}
		env.Run()
		return float64(opts.FileSize*int64(nc)) / end.Sub(start).Seconds()
	}
	res := ThroughputResult{WriteBps: pass("tput-write", true)}
	if opts.AfterWrite != nil {
		opts.AfterWrite()
	}
	res.ReadBps = pass("tput-read", false)
	if opts.ReRead {
		res.ReReadBps = pass("tput-reread", false)
	}
	return res
}
