package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/iotrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

// cycle runs one full record→replay pass and returns every byte-level
// artifact: the encoded trace, the replay report exactly as the command
// prints it, and the Perfetto export of the recorded operations.
func cycle(t *testing.T) (enc, report, perfetto string) {
	t.Helper()

	rc := cluster.New(cluster.Options{Clients: 2})
	tr := &iotrace.Trace{}
	mounts := make([]gluster.FS, 2)
	for i := range mounts {
		mounts[i] = iotrace.NewRecorder(rc.Mounts[i].FS, tr, i)
	}
	res := workload.Latency(rc.Env, mounts, workload.LatencyOptions{
		Dir:         "/det",
		RecordSizes: []int64{256, 2048},
		Records:     16,
		KeepOps:     true,
	})
	var encB strings.Builder
	if err := tr.Encode(&encB); err != nil {
		t.Fatal(err)
	}
	var pf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&pf, res.Ops, nil); err != nil {
		t.Fatal(err)
	}

	pc := cluster.New(cluster.Options{Clients: 2, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
	rres := iotrace.Replay(pc.Env, pc.FSes(), tr)
	bank := pc.BankStats()
	var rep bytes.Buffer
	writeReplayReport(&rep, len(tr.Ops), 2, 2, rres, &bank)
	return encB.String(), rep.String(), pf.String()
}

// Two full record→replay cycles must agree byte for byte on the encoded
// trace, the replay report, and the Perfetto export: the simulator's
// determinism guarantee extends all the way out to what imcatrace prints
// and what the trace viewer loads.
func TestReplayReportDeterministic(t *testing.T) {
	encA, repA, pfA := cycle(t)
	encB, repB, pfB := cycle(t)
	if encA != encB {
		t.Error("encoded traces differ between identical record runs")
	}
	if repA != repB {
		t.Error("replay reports differ between identical replays")
	}
	if pfA != pfB {
		t.Error("Perfetto exports differ between identical runs")
	}
	if !strings.Contains(repA, "replayed ") || !strings.Contains(repA, "bank: ") {
		t.Errorf("replay report missing headline or bank stats:\n%s", repA)
	}
	if !strings.Contains(repA, "read") || !strings.Contains(repA, "write") {
		t.Errorf("replay report missing per-kind lines:\n%s", repA)
	}
	if !strings.Contains(pfA, "traceEvents") {
		t.Error("Perfetto export missing traceEvents array")
	}
}

// A trace's sleep records are think times: client 1 idles 40 ms before its
// stat, past the ~17 ms client 0's operations take, so the replay's elapsed
// time is the sleep's; the sleeps are counted and averaged as their own kind.
func TestReplayWithSleeps(t *testing.T) {
	in := filepath.Join(t.TempDir(), "sleeps.trace")
	const text = `0 create /s/f 0 0 0
0 write /s/f 0 4096 3
0 sleep - 0 2000000 0
0 read /s/f 0 4096 0
1 sleep - 0 40000000 0
1 stat /s/f 0 0 0
`
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := replay([]string{"-in", in, "-clients", "2", "-mcds", "1"}, &rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replayed 6 ops on 2 clients, 1 MCDs: ", " 0 errors\n", "  sleep          2 ops, avg 21ms\n"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, rep.String())
		}
	}
	head, _, _ := strings.Cut(strings.TrimPrefix(rep.String(), "replayed 6 ops on 2 clients, 1 MCDs: "), " elapsed")
	if elapsed, err := time.ParseDuration(head); err != nil || elapsed < 40*time.Millisecond {
		t.Errorf("elapsed %q (%v): want at least client 1's 40ms sleep", head, err)
	}
}

// writeReplayReport with no bank (a NoCache replay) must omit the bank
// lines rather than print zeros that suggest a cache was present.
func TestReplayReportNoBank(t *testing.T) {
	res := &iotrace.Result{
		OpCounts: map[iotrace.Kind]int{iotrace.OpStat: 1},
		OpTime:   map[iotrace.Kind]sim.Duration{},
	}
	var rep bytes.Buffer
	writeReplayReport(&rep, 1, 1, 0, res, nil)
	if strings.Contains(rep.String(), "bank:") {
		t.Errorf("NoCache report mentions the bank:\n%s", rep.String())
	}
}
