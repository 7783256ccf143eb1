package experiments

import (
	"fmt"
	"strings"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/core"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/nfssim"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// testbed is one deployed system as a cell sees it.
type testbed struct {
	env     *sim.Env
	mounts  []gluster.FS
	cluster *cluster.Cluster // nil unless the system is GlusterFS/IMCa
	drop    func()           // the cold-cache remount; nil on a system measured warm
	// What the runner's observation asks of the cell: trace every measured
	// operation; with reg, the deployment is on it and the operations kept.
	trace bool
	reg   *telemetry.Registry
}

// observe says how much of a column Options.Observe watches.
type observe int

const (
	unobserved   observe = iota
	traced               // every measured operation traced: per-layer breakdowns
	instrumented         // traced, the deployment on a telemetry registry, operations kept for export
)

// system is one column: its name and the one recipe that deploys it.
type system struct {
	name    string
	deploy  func(o Options, clients int) testbed
	observe observe
}

// watched returns s with its observation level declared.
func (s system) watched(level observe) system {
	s.observe = level
	return s
}

// glusterSys is a GlusterFS (or, with MCDs, IMCa) column — the only place
// one is deployed; the time-series experiments go through it too. The server
// page cache shrinks with the workload to preserve cache-vs-disk behaviour.
func glusterSys(name string, opts cluster.Options) system {
	return system{name: name, deploy: func(o Options, clients int) testbed {
		opts := opts
		opts.Clients = clients
		opts.ServerCacheBytes = scaled(6<<30, o.scale())
		c := cluster.New(opts)
		return testbed{env: c.Env, mounts: c.FSes(), cluster: c}
	}}
}

// lustreSys is a Lustre column with osts data servers, its caches scaled
// like the GlusterFS server's — the only place a Lustre deployment is
// built. cold drops every client cache between stages and record sizes.
func lustreSys(name string, osts int, cold bool) system {
	return system{name: name, deploy: func(o Options, clients int) testbed {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		cl := lustre.New(env, net, "lustre", lustre.Config{
			OSTs:             osts,
			OSTCacheBytes:    scaled(6<<30, o.scale()),
			ClientCacheBytes: scaled(2<<30, o.scale()),
		})
		tb := testbed{env: env}
		var lclients []*lustre.Client
		for i := 0; i < clients; i++ {
			lc := cl.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
			lclients = append(lclients, lc)
			tb.mounts = append(tb.mounts, lc)
		}
		if cold {
			tb.drop = func() {
				for _, lc := range lclients {
					lc.DropCaches()
				}
			}
		}
		return tb
	}}
}

// bankOnLustreSys is ext-lustre's column: cold single-server Lustre with a
// two-daemon bank attached through the client-populated CMCache.
func bankOnLustreSys(name string) system {
	return system{name: name, deploy: func(o Options, clients int) testbed {
		tb := lustreSys(name, 1, true).deploy(o, clients)
		net := tb.mounts[0].(*lustre.Client).Node().Network()
		bank := []*memcache.SimServer{
			memcache.NewSimServer(net.NewNode("mcd0", 8), o.mcdMemForLatency()),
			memcache.NewSimServer(net.NewNode("mcd1", 8), o.mcdMemForLatency()),
		}
		cfg := core.Config{BlockSize: 2048, ClientPopulate: true}
		for i, m := range tb.mounts {
			lc := m.(*lustre.Client)
			tb.mounts[i] = core.NewCMCache(lc, memcache.NewSimClient(lc.Node(), bank), cfg)
		}
		return tb
	}}
}

// nfsSys is fig1's column: one NFS server with mem bytes of page cache,
// named after the transport its clients reach it over.
func nfsSys(tr fabric.Transport, mem int64) system {
	return system{name: tr.Name, deploy: func(o Options, clients int) testbed {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, tr)
		srv := nfssim.NewServer(env, net.NewNode("nfs", 8), mem)
		tb := testbed{env: env}
		for i := 0; i < clients; i++ {
			tb.mounts = append(tb.mounts, nfssim.NewClient(net.NewNode(fmt.Sprintf("c%d", i), 8), srv))
		}
		return tb
	}}
}

// traces is what a column's run traced: nothing unless the testbed asked.
type traces struct {
	verb string // "read" or "write", for the breakdown titles
	by   map[int64]*optrace.Breakdown
	ops  []*optrace.Op
}

// figure declares one table-shaped registry entry: a sweep crossed with
// systems, one number per cell. rows is the sweep — client counts, thread
// counts, record sizes — labelled as fmtSize prints a number ("2K"; plain
// below 1 K, which every count is) unless labels names the rows.
// With cell set, every (row, system) pair is its own deployment — of
// clients clients, or as many as the row says where clients is zero — and
// cell measures it. With column set, every system is deployed once and one
// run yields its whole column (workload.Latency steps through the record
// sizes on one deployment). Either way a deployment is one point of the
// worker pool, assembled in declaration order.
type figure struct {
	name, title string
	x, y        string
	rows        []int64
	labels      []string
	clients     int
	systems     []system
	cell        func(o Options, tb testbed, row int64) float64
	column      func(o Options, tb testbed, ns []int64) ([]float64, traces)
	claims      func(f *filled) // states what is claimed about the finished table
}

// label is the printed name of row i.
func (f figure) label(i int) string {
	if f.labels != nil {
		return f.labels[i]
	}
	return fmtSize(f.rows[i])
}

// filled is a finished figure as its claims read it: the table, and the
// Result the claims are added to.
type filled struct {
	*metrics.Table
	*Result
	bank map[string]memcache.Stats // per IMCa column, the bank's totals after the last row
}

func (f *filled) end() int                 { return f.Rows() - 1 }
func (f *filled) first(col string) float64 { return f.Value(0, col) }
func (f *filled) last(col string) float64  { return f.Value(f.end(), col) }
func (f *filled) lastX() string            { return f.X(f.end()) }

// cut is the percentage by which column to undercuts column from at row i.
func (f *filled) cut(i int, from, to string) float64 {
	return 100 * metrics.Reduction(f.Value(i, from), f.Value(i, to))
}

// everyRow reports whether ok holds at every row.
func (f *filled) everyRow(ok func(i int) bool) bool {
	for i := 0; i < f.Rows(); i++ {
		if !ok(i) {
			return false
		}
	}
	return true
}

// at names row i for a claim's text: "clients = 64".
func (f *filled) at(i int) string { return f.XLabel + " = " + f.X(i) }

// cuts adds the numeric claim that column to is paper percent below column
// from at row i.
func (f *filled) cuts(quote string, paper float64, i int, from, to string) *Claim {
	c := f.cut(i, from, to)
	return f.number(quote, paper, c, "at %s: %s is %.0f%% below %s", f.at(i), to, c, from)
}

// rising adds the ordering claim that the columns cols increase, in the
// order given, at row i.
func (f *filled) rising(quote string, i int, cols ...string) *Claim {
	holds, vals := true, make([]string, len(cols))
	for k, c := range cols {
		holds = holds && (k == 0 || f.Value(i, cols[k-1]) < f.Value(i, c))
		vals[k] = c + " " + cell(f.Value(i, c))
	}
	return f.order(quote, holds, "at %s: %s", f.at(i), strings.Join(vals, " vs "))
}

// missRate is the bank miss rate of the named column at the last row.
func (f *filled) missRate(col string) float64 {
	st := f.bank[col]
	return float64(st.GetMisses) / float64(st.GetHits+st.GetMisses)
}

// run deploys, measures and assembles the figure. Each point is one
// deployment and carries everything the figure keeps of it, so nothing is
// shared between workers. It is also the one place a declared observation
// level turns into tracing, a registry, and what the Result carries of them;
// observation costs no virtual time, so the values are the same either way.
func (f figure) run(o Options) *Result {
	n := len(f.systems)
	per := len(f.rows) // the rows one deployment measures
	if f.cell != nil {
		per = 1
	}
	type point struct {
		vals []float64
		bank memcache.Stats
		seen Result // the Breakdowns, Telemetry and Ops of an observed column
	}
	pts := points(o, len(f.rows)/per*n, func(i int) point {
		first, s := i/n*per, f.systems[i%n]
		rows := f.rows[first : first+per]
		clients := f.clients
		if clients == 0 {
			clients = int(rows[0])
		}
		bed := s.deploy(o, clients)
		if o.Observe && s.observe != unobserved {
			bed.trace = true
			if s.observe == instrumented {
				bed.reg = telemetry.NewRegistry()
				bed.cluster.Instrument(bed.reg)
			}
		}
		var pt point
		var tr traces
		if f.cell != nil {
			pt.vals = []float64{f.cell(o, bed, rows[0])}
		} else {
			pt.vals, tr = f.column(o, bed, rows)
		}
		if bed.cluster != nil {
			pt.bank = bed.cluster.BankStats()
		}
		pt.seen.Ops = tr.ops
		for k, r := range rows {
			if b := tr.by[r]; b != nil && b.Count() > 0 {
				pt.seen.Breakdowns = append(pt.seen.Breakdowns,
					NamedDump{fmt.Sprintf("%s %s, %s records", s.name, tr.verb, f.label(first+k)), textOf(b.Report)})
			}
		}
		if bed.reg != nil {
			pt.seen.Telemetry = []NamedDump{{Title: s.name + " final counters (" + f.name + ")", Text: textOf(bed.reg.Dump)}}
		}
		return pt
	})

	tb := metrics.NewTable(f.title, f.x, f.y)
	for _, s := range f.systems {
		tb.Columns = append(tb.Columns, s.name)
	}
	res := &Result{Name: f.name, Table: tb}
	fl := &filled{Table: tb, Result: res, bank: make(map[string]memcache.Stats)}
	for ri := range f.rows {
		vals := make([]float64, n)
		for c, s := range f.systems {
			pt := pts[ri/per*n+c]
			vals[c], fl.bank[s.name] = pt.vals[ri%per], pt.bank
		}
		tb.AddRow(f.label(ri), vals...)
	}
	// The instrumented column leads the report; the traced ones follow.
	for _, level := range []observe{instrumented, traced} {
		for i, pt := range pts {
			if f.systems[i%n].observe == level {
				res.Breakdowns = append(res.Breakdowns, pt.seen.Breakdowns...)
				res.Telemetry = append(res.Telemetry, pt.seen.Telemetry...)
				res.Ops = append(res.Ops, pt.seen.Ops...)
			}
		}
	}
	f.claims(fl)
	return res
}

// recordLatency runs the record latency benchmark on tb: per-client files,
// or with shared the read/write-sharing variant on one. A cold testbed drops
// its client caches after the write stage and before each record size.
func recordLatency(o Options, tb testbed, shared bool, ns []int64) workload.LatencyResult {
	opts := workload.LatencyOptions{
		Dir: "/lat", RecordSizes: ns, Records: o.records(), Shared: shared,
		AfterWrite: tb.drop, Trace: tb.trace, KeepOps: tb.reg != nil,
	}
	if shared {
		opts.Dir = "/share"
	}
	if tb.drop != nil {
		opts.BeforeReadSize = func(int64) { tb.drop() }
	}
	return workload.Latency(tb.env, tb.mounts, opts)
}

// micros lists by[n] for each n, in µs per operation.
func micros(by map[int64]sim.Duration, ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = usPerOp(by[n])
	}
	return out
}

// readLatency is the column of read latencies; writeLatency the same run's
// write side.
func readLatency(o Options, tb testbed, ns []int64) ([]float64, traces) {
	res := recordLatency(o, tb, false, ns)
	return micros(res.Read, ns), traces{"read", res.ReadBreakdowns, res.Ops}
}

func writeLatency(o Options, tb testbed, ns []int64) ([]float64, traces) {
	res := recordLatency(o, tb, false, ns)
	return micros(res.Write, ns), traces{"write", res.WriteBreakdowns, res.Ops}
}

// recordRead is the cell form: read latency at one record size, on
// per-client files or (shared) with the root writing and all reading.
func recordRead(record int64, shared bool) func(Options, testbed, int64) float64 {
	return func(o Options, tb testbed, _ int64) float64 {
		return usPerOp(recordLatency(o, tb, shared, []int64{record}).Read[record])
	}
}

// streamRead is the IOzone read test: every client streams its own file in
// record-sized reads; aggregate MB/s.
func streamRead(fileSize, record int64) func(Options, testbed, int64) float64 {
	return func(o Options, tb testbed, _ int64) float64 {
		res := workload.Throughput(tb.env, tb.mounts, workload.ThroughputOptions{
			Dir: "/io", FileSize: fileSize, RecordSize: record, AfterWrite: tb.drop,
		})
		return res.ReadBps / 1e6
	}
}

// statAll is the stat benchmark: nFiles created (untimed), then every
// client stats every stride-th one; the slowest client's seconds.
func statAll(nFiles, stride int) func(Options, testbed, int64) float64 {
	return func(o Options, tb testbed, _ int64) float64 {
		workload.CreateFiles(tb.env, tb.mounts[0], "/stat", nFiles)
		return workload.StatBenchStrided(tb.env, tb.mounts, "/stat", nFiles, stride).Seconds()
	}
}

// writeFile creates path and fills it in rec-sized records; who labels the
// panic a failure raises.
func writeFile(p *sim.Proc, fs gluster.FS, who, path string, size, rec int64) gluster.FD {
	fd, err := fs.Create(p, path)
	if err != nil {
		panic(fmt.Sprintf("%s: create: %v", who, err))
	}
	for off := int64(0); off < size; off += rec {
		if _, err := fs.Write(p, fd, off, blob.Synthetic(1, off, rec)); err != nil {
			panic(fmt.Sprintf("%s: write: %v", who, err))
		}
	}
	return fd
}
