package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"imca/internal/cluster"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// pinDeployment is one deployment the pinned drivers run on: its kernel,
// its mounts, and a hook that drops every client cache (a no-op where the
// clients keep none).
type pinDeployment struct {
	env    *sim.Env
	mounts []gluster.FS
	drop   func()
}

// pinIMCa is a four-client IMCa deployment: every layer continuation-style.
func pinIMCa() pinDeployment {
	c := cluster.New(cluster.Options{Clients: 4, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
	return pinDeployment{env: c.Env, mounts: c.FSes(), drop: func() {}}
}

// pinLustre is a two-client, two-OST Lustre deployment: blocking-only
// clients over the fabric.
func pinLustre() pinDeployment {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cl := lustre.New(env, net, "lustre", lustre.DefaultConfig(2))
	d := pinDeployment{env: env}
	var lcs []*lustre.Client
	for i := 0; i < 2; i++ {
		lc := cl.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
		lcs = append(lcs, lc)
		d.mounts = append(d.mounts, lc)
	}
	d.drop = func() {
		for _, lc := range lcs {
			lc.DropCaches()
		}
	}
	return d
}

// renderBreakdowns writes each record size's traced decomposition as its
// operation count and every layer's summed exclusive time.
func renderBreakdowns(b *strings.Builder, verb string, m map[int64]*optrace.Breakdown) {
	sizes := make([]int64, 0, len(m))
	for r := range m {
		sizes = append(sizes, r)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, r := range sizes {
		bd := m[r]
		fmt.Fprintf(b, " %s%d[n=%d sum=%d", verb, r, bd.Count(), bd.Total().Sum())
		for _, l := range bd.Layers() {
			fmt.Fprintf(b, " %s=%d", l, bd.Layer(l).Sum())
		}
		b.WriteString("]")
	}
}

// renderLatency writes every field of a LatencyResult: the per-size means,
// the breakdowns, and a digest of the retained operations.
func renderLatency(res LatencyResult) string {
	var b strings.Builder
	sizes := make([]int64, 0, len(res.Write))
	for r := range res.Write {
		sizes = append(sizes, r)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, r := range sizes {
		fmt.Fprintf(&b, "w%d=%d r%d=%d ", r, res.Write[r], r, res.Read[r])
	}
	renderBreakdowns(&b, "W", res.WriteBreakdowns)
	renderBreakdowns(&b, "R", res.ReadBreakdowns)
	h := fnv.New64a()
	for _, op := range res.Ops {
		fmt.Fprintf(h, "%d %s %d %d %d;", op.ID, op.Name, op.Start, op.Finish, len(op.Spans))
	}
	fmt.Fprintf(&b, " ops=%d/%x", len(res.Ops), h.Sum64())
	return b.String()
}

// TestDriversPinned pins what each closed-loop driver measures, on a
// continuation-style deployment and on a blocking-only one: every result
// field and the number of kernel events the run dispatched. How a driver's
// client bodies are written is free; the events they cause are not.
func TestDriversPinned(t *testing.T) {
	lat := func(opts LatencyOptions) func(d pinDeployment) string {
		return func(d pinDeployment) string {
			opts.RecordSizes = []int64{256, 4096}
			opts.Records = 16
			return renderLatency(Latency(d.env, d.mounts, opts))
		}
	}
	drivers := []struct {
		name string
		run  func(d pinDeployment) string
	}{
		{"latency", lat(LatencyOptions{Dir: "/lat"})},
		{"latency-shared", lat(LatencyOptions{Dir: "/lat", Shared: true})},
		{"latency-trace", lat(LatencyOptions{Dir: "/lat", Trace: true, KeepOps: true})},
		{"latency-cold", func(d pinDeployment) string {
			var hooks []int64
			res := lat(LatencyOptions{Dir: "/lat", AfterWrite: d.drop, BeforeReadSize: func(r int64) {
				hooks = append(hooks, r)
				d.drop()
			}})(d)
			return fmt.Sprintf("%s hooks=%v", res, hooks)
		}},
		{"throughput-reread", func(d pinDeployment) string {
			return fmt.Sprintf("%+v", Throughput(d.env, d.mounts, ThroughputOptions{
				Dir: "/tp", FileSize: 1 << 20, RecordSize: 64 << 10, ReRead: true,
			}))
		}},
		{"mdtest", func(d pinDeployment) string {
			return fmt.Sprintf("%+v", MDTest(d.env, d.mounts, MDTestOptions{Dir: "/md", FilesPerClient: 8}))
		}},
		{"smallfiles-keep", func(d pinDeployment) string {
			return fmt.Sprintf("AvgAccess=%d", SmallFiles(d.env, d.mounts, SmallFilesOptions{
				Dir: "/sf", Files: 16, FileSize: 4096, Accesses: 32, Seed: 3,
			}).AvgAccess)
		}},
		{"smallfiles-reopen", func(d pinDeployment) string {
			return fmt.Sprintf("AvgAccess=%d", SmallFiles(d.env, d.mounts, SmallFilesOptions{
				Dir: "/sf", Files: 16, FileSize: 4096, Accesses: 32, Reopen: true, Seed: 3,
			}).AvgAccess)
		}},
	}
	deployments := []struct {
		name   string
		deploy func() pinDeployment
	}{
		{"imca4", pinIMCa},
		{"lustre2", pinLustre},
	}
	for _, dr := range drivers {
		for _, dep := range deployments {
			key := dr.name + "/" + dep.name
			d := dep.deploy()
			got := fmt.Sprintf("%s events=%d", dr.run(d), d.env.EventsProcessed)
			if want, ok := pinnedResults[key]; !ok || got != want {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want)
			}
		}
	}
}

// pinnedResults holds what TestDriversPinned's runs produced when the
// drivers' client bodies were continuation closures started by startClient.
var pinnedResults = map[string]string{
	"latency/imca4":             "w256=971365 r256=134895 w4096=1177880 r4096=151618  ops=0/cbf29ce484222325 events=9122",
	"latency/lustre2":           "w256=1343994 r256=11081 w4096=923037 r4096=133071  ops=0/cbf29ce484222325 events=3202",
	"latency-shared/imca4":      "w256=970683 r256=134880 w4096=1176717 r4096=151063  ops=0/cbf29ce484222325 events=4508",
	"latency-shared/lustre2":    "w256=1340268 r256=14201 w4096=922626 r4096=133064  ops=0/cbf29ce484222325 events=1856",
	"latency-trace/imca4":       "w256=971365 r256=134895 w4096=1177880 r4096=151618  W256[n=64 sum=62167376 fuse=1616384 net=17228640 mcdsrv=841776 server=10246528 posix=32234048] W4096[n=64 sum=75384352 fuse=1862144 net=26147680 mcdsrv=1284800 server=10344832 posix=35744896] R256[n=64 sum=8633312 fuse=1616384 net=6527288 mcdsrv=489640] R4096[n=64 sum=9703610 fuse=1862144 net=7140722 mcdsrv=700744] ops=256/747116f684a3ce86 events=9122",
	"latency-trace/lustre2":     "w256=1343994 r256=11081 w4096=923037 r4096=133071  W256[n=32 sum=43007809 op=67264 net=10590642 posix=32349903] W4096[n=32 sum=29537204 op=116416 net=11548340 posix=17872448] R256[n=32 sum=354610 op=67264 net=287346] R4096[n=32 sum=4258298 op=116416 net=4141882] ops=128/96f3ca6e86a2382 events=3202",
	"latency-cold/imca4":        "w256=971365 r256=134895 w4096=1177880 r4096=151739  ops=0/cbf29ce484222325 hooks=[256 4096] events=9132",
	"latency-cold/lustre2":      "w256=1343994 r256=18075 w4096=923037 r4096=148669  ops=0/cbf29ce484222325 hooks=[256 4096] events=3285",
	"throughput-reread/imca4":   "{WriteBps:3.728497942305437e+07 ReadBps:3.9218987196779674e+08 ReReadBps:3.9218987196779674e+08} events=33397",
	"throughput-reread/lustre2": "{WriteBps:3.964434960568357e+07 ReadBps:2.0116741546616858e+08 ReReadBps:4.645636917842206e+09} events=1852",
	"mdtest/imca4":              "{CreatePerSec:2332.914137824193 StatPerSec:33813.993974240606 UnlinkPerSec:9026.599696819083} events=4239",
	"mdtest/lustre2":            "{CreatePerSec:17850.44893879081 StatPerSec:17856.823985285977 UnlinkPerSec:17992.87257335188} events=873",
	"smallfiles-keep/imca4":     "AvgAccess=508062 events=8319",
	"smallfiles-keep/lustre2":   "AvgAccess=118294 events=1731",
	"smallfiles-reopen/imca4":   "AvgAccess=1431794 events=17768",
	"smallfiles-reopen/lustre2": "AvgAccess=188127 events=2250",
}
