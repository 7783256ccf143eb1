package main

import (
	"fmt"
	"strings"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// load is one workload: setup builds the deployment and its inputs from
// nothing, timed runs the measured phase, collect reports what it
// produced, verify re-checks outputs. A load is set up, timed, collected
// and verified once; setup alone may also run on throwaway instances to
// time it.
type load interface {
	// setup builds everything the first timed op needs.
	setup()
	// instrument switches on the program's own instrumentation for the
	// traced pass; it is called after setup and before timed.
	instrument()
	// timed runs the measured phase to completion.
	timed()
	// ops is the number of operations the timed phase attempts.
	ops() int64
	// counts snapshots the cumulative counters at the layer boundaries.
	counts() counts
	// collect stores the workload's own results (virt_*, host_p*), the
	// per-op and ratio metrics of the timed phase's counter deltas d over
	// n ops and, on the traced pass, the per-layer virtual times.
	collect(v values, d counts, n float64)
	// verify re-checks outputs after the counters have been read.
	verify(c *checker)
	// sizes describes the run for the result stamp.
	sizes() map[string]int64
	// notes are printed with the result (open_10k's rate and limit).
	notes() []string
	// close releases sockets and goroutines.
	close()
}

// values holds metric values by catalogue name.
type values map[string]float64

// counts are the exact, cumulative counters read at layer boundaries
// from fields the program already exports. Deltas over the timed phase
// become the *_per_op metrics; all of them enter virt_digest.
type counts struct {
	Events     uint64
	FabricMsgs int64
	FabricB    int64
	BankGets   uint64
	BankSets   uint64
	BankHits   uint64
	BankEvict  uint64
	BankBytes  int64
	PCHits     uint64
	PCMisses   uint64
	DiskIOs    uint64
	ServerRPCs uint64
}

func (a counts) minus(b counts) counts {
	return counts{
		Events:     a.Events - b.Events,
		FabricMsgs: a.FabricMsgs - b.FabricMsgs,
		FabricB:    a.FabricB - b.FabricB,
		BankGets:   a.BankGets - b.BankGets,
		BankSets:   a.BankSets - b.BankSets,
		BankHits:   a.BankHits - b.BankHits,
		BankEvict:  a.BankEvict - b.BankEvict,
		BankBytes:  a.BankBytes, // a level, not a flow
		PCHits:     a.PCHits - b.PCHits,
		PCMisses:   a.PCMisses - b.PCMisses,
		DiskIOs:    a.DiskIOs - b.DiskIOs,
		ServerRPCs: a.ServerRPCs - b.ServerRPCs,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// scaled sizes a reference count for a run of the given length; the
// reference sizes are the ones for refSeconds.
const refSeconds = 10

func scaled(ref int64, seconds float64, min int64) int64 {
	n := int64(float64(ref)*seconds/refSeconds + 0.5)
	if n < min {
		n = min
	}
	return n
}

// simBase is what the four simulator workloads share: the deployment, its
// telemetry registry on the traced pass, and the counter snapshot.
type simBase struct {
	opts cluster.Options
	cl   *cluster.Cluster
	reg  *telemetry.Registry
}

func (b *simBase) deploy() { b.cl = cluster.New(b.opts) }

func (b *simBase) instrument() {
	b.reg = telemetry.NewRegistry()
	b.cl.Instrument(b.reg)
}

func (b *simBase) close() {}

func (b *simBase) notes() []string { return nil }

func (b *simBase) counts() counts {
	c := counts{Events: b.cl.Env.EventsProcessed}
	addNode := func(tx, bytes int64) {
		c.FabricMsgs += tx
		c.FabricB += bytes
	}
	for _, m := range b.cl.Mounts {
		addNode(m.Node.TxMsgs, m.Node.TxBytes)
	}
	for _, br := range b.cl.Bricks {
		addNode(br.Node.TxMsgs, br.Node.TxBytes)
		c.PCHits += br.Posix.Cache().Hits
		c.PCMisses += br.Posix.Cache().Misses
		c.DiskIOs += br.Posix.DiskReads + br.Posix.DiskWrites
		for _, op := range serverOps {
			c.ServerRPCs += br.Server.Ops[op]
		}
	}
	for _, s := range b.cl.MCDs {
		addNode(s.Node().TxMsgs, s.Node().TxBytes)
	}
	st := b.cl.BankStats()
	c.BankGets, c.BankSets, c.BankHits, c.BankEvict, c.BankBytes = st.CmdGet, st.CmdSet, st.GetHits, st.Evictions, st.Bytes
	return c
}

// serverOps are the request names gluster.Server counts under.
var serverOps = []string{"create", "open", "close", "read", "write", "stat", "unlink", "mkdir", "truncate", "readdir"}

// hists merges the named histogram of every instrument whose name ends in
// one of the suffixes, in registration order.
func (b *simBase) hists(suffixes ...string) *metrics.Histogram {
	var out metrics.Histogram
	for _, in := range b.reg.Instruments() {
		if in.Kind() != telemetry.KindHist {
			continue
		}
		for _, s := range suffixes {
			if strings.HasSuffix(in.Name(), s) {
				out.Merge(in.Hist())
				break
			}
		}
	}
	return &out
}

// collectLayers stores the boundary counts of the timed phase and, on the
// traced pass, the cluster.Instrument histograms and the RAID utilization
// gauge.
func (b *simBase) collectLayers(v values, d counts, n float64) {
	v["sim.events_per_op"] = float64(d.Events) / n
	v["fabric.msgs_per_op"] = float64(d.FabricMsgs) / n
	v["fabric.kb_per_op"] = float64(d.FabricB) / 1024 / n
	v["bank.gets_per_op"] = float64(d.BankGets) / n
	v["bank.sets_per_op"] = float64(d.BankSets) / n
	v["bank.hit_rate"] = ratio(float64(d.BankHits), float64(d.BankGets))
	v["bank.evictions_per_op"] = float64(d.BankEvict) / n
	v["bank.stored_mb"] = float64(d.BankBytes) / (1 << 20)
	v["pagecache.hit_rate"] = ratio(float64(d.PCHits), float64(d.PCHits+d.PCMisses))
	v["disk.ios_per_op"] = float64(d.DiskIOs) / n
	v["server.rpcs_per_op"] = float64(d.ServerRPCs) / n
	if b.reg == nil {
		return
	}
	fuse := b.hists(".fuse.read_lat", ".fuse.write_lat", ".fuse.stat_lat")
	cm := b.hists(".cmcache.stat_lat", ".cmcache.read_lat")
	get := b.hists(".bank.get_lat", ".bank.getmulti_lat")
	set := b.hists(".bank.set_lat")
	rtt := b.hists(".nic.rtt")
	fill := b.hists(".pagecache.fill_lat")
	v["virt.fuse.p99_us"] = us(fuse.Quantile(0.99))
	v["virt.cmcache.p99_us"] = us(cm.Quantile(0.99))
	v["virt.bank_get.mean_us"] = us(get.Mean())
	v["virt.bank_get.p99_us"] = us(get.Quantile(0.99))
	v["virt.bank_set.mean_us"] = us(set.Mean())
	v["virt.nic_rtt.mean_us"] = us(rtt.Mean())
	v["virt.nic_rtt.p99_us"] = us(rtt.Quantile(0.99))
	v["virt.pagecache_fill.mean_us"] = us(fill.Mean())

	var util, disks float64
	for bi, br := range b.cl.Bricks {
		for i := range br.Array.Disks() {
			if u, ok := b.reg.Value(fmt.Sprintf("brick%d.raid.disk%d.util", bi, i)); ok {
				util += u
				disks++
			}
		}
	}
	v["disk.util_pct"] = 100 * ratio(util, disks)
}

// onMount0 runs fn as a process on the deployment's kernel and drives the
// simulation until it returns: how verification reads back through a
// mount after the timed phase.
func (b *simBase) onMount0(fn func(p *sim.Proc, fs gluster.FS)) {
	b.cl.Env.Process("verify", func(p *sim.Proc) { fn(p, b.cl.Mounts[0].FS) })
	b.cl.Env.Run()
}

// verifyFile re-reads sample records of path through mount 0 and compares
// every byte with the synthetic stream the writer used.
func (b *simBase) verifyFile(c *checker, path string, seed uint64, fileSize, record int64, samples int) {
	b.onMount0(func(p *sim.Proc, fs gluster.FS) {
		fd, err := fs.Open(p, path)
		if err != nil {
			c.fail("open %s: %v", path, err)
			return
		}
		records := fileSize / record
		step := records / int64(samples)
		if step < 1 {
			step = 1
		}
		for r := int64(0); r < records; r += step {
			off := r * record
			got, err := fs.Read(p, fd, off, record)
			if err != nil {
				c.fail("read %s@%d: %v", path, off, err)
				continue
			}
			c.checkBlob(fmt.Sprintf("%s@%d", path, off), got, blob.Synthetic(seed, off, record))
		}
		if err := fs.Close(p, fd); err != nil {
			c.fail("close %s: %v", path, err)
		}
	})
}

// ---- stat_hit -------------------------------------------------------

type statHit struct {
	simBase
	files   int
	elapsed sim.Duration
}

const statDir = "/bench"

func newStatHit(seconds float64) *statHit {
	files := int(scaled(65536, seconds, 64))
	return &statHit{files: files, simBase: simBase{opts: cluster.Options{
		Clients:          64,
		MCDs:             4,
		MCDMemBytes:      2*160*int64(files) + 4<<20,
		ServerCacheBytes: 96 << 20,
	}}}
}

func (w *statHit) setup() {
	w.deploy()
	workload.CreateFiles(w.cl.Env, w.cl.Mounts[0].FS, statDir, w.files)
}

func (w *statHit) timed() {
	w.elapsed = workload.StatBenchStrided(w.cl.Env, w.cl.FSes(), statDir, w.files, 1)
}

func (w *statHit) ops() int64 { return int64(w.opts.Clients) * int64(w.files) }

func (w *statHit) sizes() map[string]int64 {
	return map[string]int64{"clients": int64(w.opts.Clients), "mcds": int64(w.opts.MCDs), "files": int64(w.files), "ops": w.ops()}
}

func (w *statHit) collect(v values, d counts, n float64) {
	v["virt_stat_us"] = us(w.elapsed) / float64(w.files)
	w.collectLayers(v, d, n)
}

func (w *statHit) verify(c *checker) {
	w.onMount0(func(p *sim.Proc, fs gluster.FS) {
		step := w.files / 256
		if step < 1 {
			step = 1
		}
		for i := 0; i < w.files; i += step {
			path := workload.FilePath(statDir, i)
			st, err := fs.Stat(p, path)
			if err != nil {
				c.fail("stat %s: %v", path, err)
				continue
			}
			c.checkStat(path, st.Size, st.IsDir, 0)
		}
	})
}

// ---- rw_records -----------------------------------------------------

type rwRecords struct {
	simBase
	records int
	traced  bool
	res     workload.LatencyResult
}

var rwSizes = []int64{1 << 10, 2 << 10, 8 << 10, 32 << 10}

const rwDir = "/bench"

func newRWRecords(seconds float64) *rwRecords {
	return &rwRecords{records: int(scaled(1024, seconds, 4)), simBase: simBase{opts: cluster.Options{
		Clients:          32,
		MCDs:             2,
		MCDMemBytes:      3 << 30,
		ServerCacheBytes: 96 << 20,
	}}}
}

func (w *rwRecords) setup() { w.deploy() }

func (w *rwRecords) instrument() {
	w.simBase.instrument()
	w.traced = true
}

func (w *rwRecords) timed() {
	w.res = workload.Latency(w.cl.Env, w.cl.FSes(), workload.LatencyOptions{
		Dir: rwDir, RecordSizes: rwSizes, Records: w.records, Trace: w.traced,
	})
}

func (w *rwRecords) ops() int64 {
	return int64(w.opts.Clients) * int64(len(rwSizes)) * int64(w.records) * 2
}

func (w *rwRecords) sizes() map[string]int64 {
	return map[string]int64{"clients": int64(w.opts.Clients), "mcds": int64(w.opts.MCDs), "records": int64(w.records),
		"record_sizes": int64(len(rwSizes)), "ops": w.ops()}
}

func (w *rwRecords) collect(v values, d counts, n float64) {
	var rd, wr float64
	for _, r := range rwSizes {
		rd += us(w.res.Read[r])
		wr += us(w.res.Write[r])
	}
	v["virt_read_us"] = rd / float64(len(rwSizes))
	v["virt_write_us"] = wr / float64(len(rwSizes))
	w.collectLayers(v, d, n)
	if !w.traced {
		return
	}
	all := optrace.NewBreakdown()
	for _, r := range rwSizes {
		all.Merge(w.res.WriteBreakdowns[r])
		all.Merge(w.res.ReadBreakdowns[r])
	}
	for _, l := range optraceLayers {
		v["virt."+l+"_us"] = all.LayerMeanUs(l)
	}
	// Not catalogue metrics: the test checks that the layers partition
	// the traced end-to-end mean.
	v["optrace.total_us"] = all.TotalMeanUs()
	var sum float64
	for _, l := range all.Layers() {
		sum += all.LayerMeanUs(l)
	}
	v["optrace.layers_sum_us"] = sum
}

func (w *rwRecords) verify(c *checker) {
	// Every size's write pass lays the same synthetic stream from offset
	// 0, so client 0's file is the stream of seed 1 up to the largest
	// pass's end.
	largest := rwSizes[len(rwSizes)-1]
	w.verifyFile(c, workload.FilePath(rwDir, 0), 1, largest*int64(w.records), largest, 64)
}

// ---- cold_scan ------------------------------------------------------

type coldScan struct {
	simBase
	fileSize int64
	res      workload.ThroughputResult
}

const (
	scanDir    = "/bench"
	scanRecord = 64 << 10
)

func newColdScan(seconds float64) *coldScan {
	records := scaled(2048, seconds, 4)
	return &coldScan{fileSize: records * scanRecord, simBase: simBase{opts: cluster.Options{
		Clients:          8,
		MCDs:             1,
		MCDMemBytes:      32 << 20,
		ServerCacheBytes: 64 << 20,
		BlockSize:        2048,
		Selector:         memcache.BlockModuloSelector{BlockSize: 2048},
	}}}
}

func (w *coldScan) setup() { w.deploy() }

func (w *coldScan) timed() {
	w.res = workload.Throughput(w.cl.Env, w.cl.FSes(), workload.ThroughputOptions{
		Dir: scanDir, FileSize: w.fileSize, RecordSize: scanRecord, ReRead: true,
	})
}

func (w *coldScan) ops() int64 { return int64(w.opts.Clients) * (w.fileSize / scanRecord) * 3 }

func (w *coldScan) sizes() map[string]int64 {
	return map[string]int64{"clients": int64(w.opts.Clients), "mcds": 1, "file_bytes": w.fileSize, "record_bytes": scanRecord, "ops": w.ops()}
}

func (w *coldScan) collect(v values, d counts, n float64) {
	v["virt_mb_per_s"] = w.res.ReadBps / 1e6
	w.collectLayers(v, d, n)
}

func (w *coldScan) verify(c *checker) {
	w.verifyFile(c, workload.FilePath(scanDir, 0), 1, w.fileSize, scanRecord, 64)
}

// ---- open_10k -------------------------------------------------------

type open10k struct {
	simBase
	o   workload.OpenLoopOptions
	run *workload.OpenLoopRun
}

// openLimit is the latency limit on open_10k: a read that completes this
// long or longer after it was due counts as failed.
const openLimit = 2048 * time.Microsecond

func newOpen10k(seconds float64, seed uint64) *open10k {
	return &open10k{
		o: workload.OpenLoopOptions{
			Dir: "/bench", Files: 256, FileSize: 4096, Tenants: 10000,
			ArrivalsPerTenant: int(scaled(128, seconds, 1)),
			MeanInterarrival:  80 * time.Millisecond, ZipfS: 1.0, Seed: seed,
		},
		simBase: simBase{opts: cluster.Options{
			Clients:          16,
			MCDs:             4,
			MCDMemBytes:      96 << 20,
			BlockSize:        4096,
			ServerCacheBytes: 96 << 20,
		}},
	}
}

// warmOnOpen is a mount whose Open also reads the file once. An open
// purges the file's blocks from the bank, so after PrepareOpenLoop's opens
// the bank would be empty and the first arrivals would queue at the brick
// for up to 17 ms of virtual time; PrepareOpenLoop starts the tenants
// itself, so the only place set-up can refill the bank is inside its opens.
type warmOnOpen struct {
	gluster.TaskFS
	size int64
}

func (w warmOnOpen) Open(p *sim.Proc, path string) (gluster.FD, error) {
	fd, err := w.TaskFS.Open(p, path)
	if err != nil {
		return fd, err
	}
	_, err = w.TaskFS.Read(p, fd, 0, w.size)
	return fd, err
}

func (w *open10k) setup() {
	w.deploy()
	mounts := w.cl.FSes()
	for i, fs := range mounts {
		mounts[i] = warmOnOpen{gluster.AsTaskFS(fs), w.o.FileSize}
	}
	w.run = workload.PrepareOpenLoop(w.cl.Env, mounts, w.o)
}

func (w *open10k) timed() { w.run.Run() }

func (w *open10k) ops() int64 { return int64(w.o.Tenants) * int64(w.o.ArrivalsPerTenant) }

func (w *open10k) sizes() map[string]int64 {
	return map[string]int64{"clients": int64(w.opts.Clients), "mcds": int64(w.opts.MCDs), "files": int64(w.o.Files),
		"file_bytes": w.o.FileSize, "tenants": int64(w.o.Tenants), "arrivals_per_tenant": int64(w.o.ArrivalsPerTenant), "ops": w.ops()}
}

func (w *open10k) collect(v values, d counts, n float64) {
	v["virt_read_us"] = us(w.run.Latency.Mean())
	v["virt_p99_us"] = us(w.run.Latency.Quantile(0.99))
	w.collectLayers(v, d, n)
}

// overLimit counts completions that took the limit or longer: the limit is
// a bucket's lower edge, so the count over the buckets from there is exact.
func overLimit(h *metrics.Histogram, limit time.Duration) uint64 {
	var n uint64
	for i := 0; i < h.NumBuckets(); i++ {
		if metrics.BucketUpper(i) > limit {
			n += h.BucketCount(i)
		}
	}
	return n
}

func (w *open10k) notes() []string {
	offered := float64(w.o.Tenants) / w.o.MeanInterarrival.Seconds()
	return []string{
		fmt.Sprintf("open loop: %d tenants, offered %.0f reads/s, latency limit %d us on completion - due time", w.o.Tenants, offered, openLimit/time.Microsecond),
		fmt.Sprintf("completed/issued %d/%d, over limit %d, generator lateness 0 us (arrivals fire on schedule in virtual time)",
			w.run.Completed, w.run.Issued, overLimit(w.run.Latency, openLimit)),
	}
}

func (w *open10k) verify(c *checker) {
	want := uint64(w.ops())
	if w.run.Issued != want {
		c.failN(int64(want), "issued %d of %d arrivals", w.run.Issued, want)
	}
	if w.run.Completed != w.run.Issued || w.run.Latency.Count() != w.run.Issued {
		c.failN(int64(w.run.Issued-w.run.Completed), "completed %d of %d issued (%d latencies)", w.run.Completed, w.run.Issued, w.run.Latency.Count())
	}
	if n := overLimit(w.run.Latency, openLimit); n > 0 {
		c.failN(int64(n), "%d reads exceeded the %v limit", n, openLimit)
	}
	for _, i := range []int{0, w.o.Files / 2, w.o.Files - 1} {
		w.verifyFile(c, workload.FilePath(w.o.Dir, i), uint64(i)+1, w.o.FileSize, w.o.FileSize, 1)
	}
}
