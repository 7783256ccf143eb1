package workload

import (
	"errors"
	"fmt"
	"testing"

	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/xrand"
)

func TestCreateFilesAndStatBenchNoCache(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 4})
	CreateFiles(c.Env, c.Mounts[0].FS, "/bench", 64)
	if c.Posix.FileCount() != 64 {
		t.Fatalf("created %d files, want 64", c.Posix.FileCount())
	}
	d := StatBench(c.Env, c.FSes(), "/bench", 64)
	if d <= 0 {
		t.Error("stat bench reported non-positive duration")
	}
	if c.Server.Ops["stat"] < 4*64 {
		t.Errorf("server stats = %d, want >= 256", c.Server.Ops["stat"])
	}
}

func TestStatBenchIMCaFasterThanNoCache(t *testing.T) {
	run := func(mcds int) sim.Duration {
		c := cluster.New(cluster.Options{Clients: 8, MCDs: mcds, MCDMemBytes: 64 << 20})
		CreateFiles(c.Env, c.Mounts[0].FS, "/bench", 128)
		return StatBench(c.Env, c.FSes(), "/bench", 128)
	}
	noCache := run(0)
	withMCD := run(1)
	if withMCD >= noCache {
		t.Errorf("IMCa stat bench (%v) not faster than NoCache (%v)", withMCD, noCache)
	}
}

func TestStatBenchMCDHitsDominate(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 4, MCDs: 2, MCDMemBytes: 64 << 20})
	CreateFiles(c.Env, c.Mounts[0].FS, "/bench", 64)
	StatBench(c.Env, c.FSes(), "/bench", 64)
	var hits, misses uint64
	for _, m := range c.Mounts {
		hits += m.CMCache.Stats.StatHits
		misses += m.CMCache.Stats.StatMisses
	}
	if hits+misses != 4*64 {
		t.Fatalf("stat ops = %d, want 256", hits+misses)
	}
	// Creates already pushed stat entries, so hits should dominate.
	if hits < misses {
		t.Errorf("hits=%d misses=%d; expected cache to dominate", hits, misses)
	}
}

func TestLatencySingleClientShape(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 256 << 20, BlockSize: 2048})
	res := Latency(c.Env, c.FSes(), LatencyOptions{
		Dir:         "/lat",
		RecordSizes: []int64{1, 1024, 16384},
		Records:     64,
	})
	for _, r := range []int64{1, 1024, 16384} {
		if res.Write[r] <= 0 || res.Read[r] <= 0 {
			t.Fatalf("record %d: write=%v read=%v", r, res.Write[r], res.Read[r])
		}
	}
	if res.Read[16384] <= res.Read[1] {
		t.Errorf("16K read (%v) not slower than 1B read (%v)", res.Read[16384], res.Read[1])
	}
	// With IMCa warm, no read misses should occur.
	if c.Mounts[0].CMCache.Stats.ReadMisses != 0 {
		t.Errorf("read misses = %d, want 0", c.Mounts[0].CMCache.Stats.ReadMisses)
	}
}

func TestLatencyMultiClientSlowerThanSingle(t *testing.T) {
	run := func(clients int) sim.Duration {
		c := cluster.New(cluster.Options{Clients: clients})
		res := Latency(c.Env, c.FSes(), LatencyOptions{
			Dir:         "/lat",
			RecordSizes: []int64{4096},
			Records:     64,
		})
		return res.Read[4096]
	}
	one := run(1)
	eight := run(8)
	if eight <= one {
		t.Errorf("8-client read latency (%v) not above single-client (%v)", eight, one)
	}
}

func TestLatencySharedFile(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 4, MCDs: 1, MCDMemBytes: 256 << 20})
	res := Latency(c.Env, c.FSes(), LatencyOptions{
		Dir:         "/share",
		RecordSizes: []int64{2048},
		Records:     32,
		Shared:      true,
	})
	if res.Read[2048] <= 0 {
		t.Fatal("shared read latency not measured")
	}
	// Every client read the same file written by client 0; the data
	// checks inside the driver verify content, so reaching here with
	// no panic is the assertion.
}

func TestLatencyAfterWriteHook(t *testing.T) {
	called := false
	c := cluster.New(cluster.Options{Clients: 1})
	Latency(c.Env, c.FSes(), LatencyOptions{
		Dir:         "/h",
		RecordSizes: []int64{512},
		Records:     8,
		AfterWrite:  func() { called = true },
	})
	if !called {
		t.Error("AfterWrite hook not invoked")
	}
}

func TestThroughputAggregates(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 2})
	res := Throughput(c.Env, c.FSes(), ThroughputOptions{
		Dir:        "/io",
		FileSize:   4 << 20,
		RecordSize: 1 << 20,
	})
	if res.WriteBps <= 0 || res.ReadBps <= 0 {
		t.Fatalf("throughput = %+v", res)
	}
	// Reads come from the warm server page cache, writes pay the disk:
	// reads should be faster.
	if res.ReadBps <= res.WriteBps {
		t.Errorf("read %.0f MB/s not above write %.0f MB/s", res.ReadBps/1e6, res.WriteBps/1e6)
	}
}

func TestThroughputIMCaScalesWithMCDs(t *testing.T) {
	run := func(mcds int) float64 {
		opts := cluster.Options{Clients: 4, MCDs: mcds, MCDMemBytes: 512 << 20, BlockSize: 2048}
		c := cluster.New(opts)
		res := Throughput(c.Env, c.FSes(), ThroughputOptions{
			Dir:        "/io",
			FileSize:   2 << 20,
			RecordSize: 256 << 10,
		})
		return res.ReadBps
	}
	one := run(1)
	four := run(4)
	if four <= one {
		t.Errorf("4 MCDs (%.0f MB/s) not above 1 MCD (%.0f MB/s)", four/1e6, one/1e6)
	}
}

func TestStatBenchDeterministic(t *testing.T) {
	run := func() sim.Duration {
		c := cluster.New(cluster.Options{Clients: 3, MCDs: 2, MCDMemBytes: 64 << 20})
		CreateFiles(c.Env, c.Mounts[0].FS, "/d", 32)
		return StatBench(c.Env, c.FSes(), "/d", 32)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestFilePathFormat(t *testing.T) {
	if got := FilePath("/bench", 7); got != "/bench/f000007" {
		t.Errorf("FilePath = %q", got)
	}
}

func TestMDTestRatesPositiveAndStatFastestWithIMCa(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 4, MCDs: 2, MCDMemBytes: 64 << 20})
	res := MDTest(c.Env, c.FSes(), MDTestOptions{Dir: "/md", FilesPerClient: 16})
	if res.CreatePerSec <= 0 || res.StatPerSec <= 0 || res.UnlinkPerSec <= 0 {
		t.Fatalf("rates = %+v", res)
	}
	// Everything must be gone afterwards.
	if c.Posix.FileCount() != 0 {
		t.Errorf("%d files left after unlink phase", c.Posix.FileCount())
	}
	// Stats are cache hits, creates/unlinks are server round trips: the
	// per-op stat rate should be the highest.
	if res.StatPerSec <= res.CreatePerSec {
		t.Errorf("stat rate %.0f not above create rate %.0f", res.StatPerSec, res.CreatePerSec)
	}
}

func TestMDTestCleanNamespaceReusable(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 2})
	MDTest(c.Env, c.FSes(), MDTestOptions{Dir: "/md", FilesPerClient: 8})
	// A second run over the same directory must succeed (no EEXIST).
	res := MDTest(c.Env, c.FSes(), MDTestOptions{Dir: "/md", FilesPerClient: 8})
	if res.CreatePerSec <= 0 {
		t.Fatal("second mdtest run failed")
	}
}

func TestSmallFilesKeepOpenVsReopen(t *testing.T) {
	run := func(reopen bool) SmallFilesResult {
		c := cluster.New(cluster.Options{Clients: 2, MCDs: 1, MCDMemBytes: 64 << 20, ServerCacheBytes: 64 << 20})
		return SmallFiles(c.Env, c.FSes(), SmallFilesOptions{
			Dir: "/sf", Files: 16, FileSize: 4096, Accesses: 64, Reopen: reopen, Seed: 7,
		})
	}
	keep := run(false)
	reopen := run(true)
	if keep.AvgAccess <= 0 || reopen.AvgAccess <= 0 {
		t.Fatalf("results: %+v %+v", keep, reopen)
	}
	// Reopen adds an open RPC (and an IMCa purge) per access: strictly slower.
	if reopen.AvgAccess <= keep.AvgAccess {
		t.Errorf("reopen (%v) not slower than keep-open (%v)", reopen.AvgAccess, keep.AvgAccess)
	}
}

func TestSmallFilesZipfSkew(t *testing.T) {
	// The popularity distribution must be skewed toward low indices.
	rng := xrand.New(1)
	z := xrand.NewZipf(rng, 1.0, 10)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[9]*2 {
		t.Errorf("index 0 count %d not clearly above index 9 count %d", counts[0], counts[9])
	}
}

func TestThroughputReRead(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 2, MCDs: 2, MCDMemBytes: 128 << 20})
	res := Throughput(c.Env, c.FSes(), ThroughputOptions{
		Dir: "/rr", FileSize: 2 << 20, RecordSize: 256 << 10, ReRead: true,
	})
	if res.ReReadBps <= 0 {
		t.Fatal("re-read pass not measured")
	}
	// The re-read runs with the bank fully warm: at least as fast as the
	// first read pass.
	if res.ReReadBps < res.ReadBps*9/10 {
		t.Errorf("re-read %.0f MB/s below first read %.0f MB/s", res.ReReadBps/1e6, res.ReadBps/1e6)
	}
}

// TestFilePathMatchesSprintf: FilePath produces fmt's bytes, widths past the
// padding and the sign included.
func TestFilePathMatchesSprintf(t *testing.T) {
	for _, dir := range []string{"/bench", "/", ""} {
		for _, i := range []int{0, 9, 999999, 1000000, 123456789, -42} {
			if got, want := FilePath(dir, i), fmt.Sprintf("%s/f%06d", dir, i); got != want {
				t.Errorf("FilePath(%q, %d) = %q, want %q", dir, i, got, want)
			}
		}
	}
}

// failingFS refuses every Open or every Close on the mount it wraps.
type failingFS struct {
	gluster.FS
	verb string
}

func (f failingFS) Open(p *sim.Proc, path string) (gluster.FD, error) {
	if f.verb == "open" {
		return 0, errors.New("open refused")
	}
	return f.FS.Open(p, path)
}

func (f failingFS) Close(p *sim.Proc, fd gluster.FD) error {
	if f.verb == "close" {
		return errors.New("close refused")
	}
	return f.FS.Close(p, fd)
}

// TestSmallFilesReportsFailures: an access whose open or close fails stops
// the run with the driver's own message, the mount's error in it. Only
// client 1's mount fails, so the set-up on client 0 completes.
func TestSmallFilesReportsFailures(t *testing.T) {
	for _, verb := range []string{"open", "close"} {
		t.Run(verb, func(t *testing.T) {
			c := cluster.New(cluster.Options{Clients: 2})
			mounts := c.FSes()
			mounts[1] = failingFS{mounts[1], verb}
			defer func() {
				msg, _ := recover().(string)
				if want := "workload: small " + verb + ": " + verb + " refused"; msg != want {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			SmallFiles(c.Env, mounts, SmallFilesOptions{
				Dir: "/sf", Files: 4, FileSize: 512, Accesses: 8, Reopen: true, Seed: 1,
			})
		})
	}
}
