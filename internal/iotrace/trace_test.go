package iotrace

import (
	"strings"
	"testing"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/sim"
)

// record produces a small trace by driving a recorded mount.
func record(t *testing.T) *Trace {
	t.Helper()
	c := cluster.New(cluster.Options{Clients: 2})
	tr := &Trace{}
	rec0 := NewRecorder(c.Mounts[0].FS, tr, 0)
	rec1 := NewRecorder(c.Mounts[1].FS, tr, 1)
	c.Env.Process("driver", func(p *sim.Proc) {
		fd, err := rec0.Create(p, "/t/a")
		if err != nil {
			t.Fatal(err)
		}
		rec0.Write(p, fd, 0, blob.Synthetic(3, 0, 8192))
		rec0.Read(p, fd, 100, 200)
		rec0.Stat(p, "/t/a")
		rec0.Close(p, fd)

		fd1, _ := rec1.Create(p, "/t/b")
		rec1.Write(p, fd1, 4096, blob.Synthetic(4, 4096, 1000))
		rec1.Read(p, fd1, 0, 5096)
		rec1.Close(p, fd1)
		rec1.Unlink(p, "/t/b")
	})
	c.Env.Run()
	return tr
}

func TestRecorderCapturesOps(t *testing.T) {
	tr := record(t)
	if len(tr.Ops) != 10 {
		t.Fatalf("recorded %d ops, want 10", len(tr.Ops))
	}
	kinds := []Kind{OpCreate, OpWrite, OpRead, OpStat, OpClose, OpCreate, OpWrite, OpRead, OpClose, OpUnlink}
	for i, want := range kinds {
		if tr.Ops[i].Kind != want {
			t.Errorf("op %d = %s, want %s", i, tr.Ops[i].Kind, want)
		}
	}
	if tr.Ops[0].Client != 0 || tr.Ops[5].Client != 1 {
		t.Error("client tags wrong")
	}
	if tr.Ops[1].Size != 8192 || tr.Ops[1].Off != 0 {
		t.Errorf("write op = %+v", tr.Ops[1])
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := record(t)
	tr.Ops = append(tr.Ops, Op{Client: 1, Kind: OpSleep, Size: 1500000})
	var sb strings.Builder
	if err := tr.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\n1 sleep - 0 1500000 0\n") {
		t.Errorf("sleep encoded as something other than %q:\n%s", "1 sleep - 0 1500000 0", sb.String())
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("decoded %d ops, want %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: %+v != %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestDecodeSkipsCommentsAndRejectsGarbage(t *testing.T) {
	tr, err := Decode(strings.NewReader("# a comment\n\n0 stat /x 0 0 0\n"))
	if err != nil || len(tr.Ops) != 1 {
		t.Fatalf("decode = %v, %d ops", err, len(tr.Ops))
	}
	if _, err := Decode(strings.NewReader("0 stat /x 0\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := Decode(strings.NewReader("zero stat /x 0 0 0\n")); err == nil {
		t.Error("bad client accepted")
	}
}

func TestEncodeRejectsSpacesInPaths(t *testing.T) {
	tr := &Trace{Ops: []Op{{Kind: OpStat, Path: "/has space"}}}
	var sb strings.Builder
	if err := tr.Encode(&sb); err == nil {
		t.Error("path with space encoded without error")
	}
}

func TestReplayAgainstFreshCluster(t *testing.T) {
	tr := record(t)
	c := cluster.New(cluster.Options{Clients: 2, MCDs: 1, MCDMemBytes: 64 << 20})
	res := Replay(c.Env, c.FSes(), tr)
	if res.Errors != 0 {
		t.Fatalf("replay errors: %d", res.Errors)
	}
	if res.OpCounts[OpWrite] != 2 || res.OpCounts[OpRead] != 2 {
		t.Errorf("op counts = %v", res.OpCounts)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time measured")
	}
	if res.AvgOp(OpRead) <= 0 {
		t.Error("read latency not measured")
	}
	// The replayed namespace reflects the trace: /t/a exists, /t/b gone.
	c.Env.Process("verify", func(p *sim.Proc) {
		if _, err := c.Mounts[0].FS.Stat(p, "/t/a"); err != nil {
			t.Errorf("stat /t/a after replay: %v", err)
		}
		if _, err := c.Mounts[0].FS.Stat(p, "/t/b"); err == nil {
			t.Error("/t/b exists after replayed unlink")
		}
	})
	c.Env.Run()
}

func TestReplayComparesConfigurations(t *testing.T) {
	// Build a read-heavy trace, then replay it against NoCache and IMCa:
	// identical operations, different virtual durations.
	tr := &Trace{}
	tr.Ops = append(tr.Ops, Op{Client: 0, Kind: OpCreate, Path: "/r/f"})
	tr.Ops = append(tr.Ops, Op{Client: 0, Kind: OpWrite, Path: "/r/f", Off: 0, Size: 64 << 10, Seed: 5})
	for i := 0; i < 50; i++ {
		tr.Ops = append(tr.Ops, Op{Client: 0, Kind: OpRead, Path: "/r/f", Off: int64(i * 1024), Size: 1024})
	}

	run := func(mcds int) sim.Duration {
		opts := cluster.Options{Clients: 1}
		if mcds > 0 {
			opts.MCDs = mcds
			opts.MCDMemBytes = 64 << 20
		}
		c := cluster.New(opts)
		res := Replay(c.Env, c.FSes(), tr)
		if res.Errors != 0 {
			t.Fatalf("replay errors: %d", res.Errors)
		}
		return res.Elapsed
	}
	noCache := run(0)
	imca := run(1)
	if imca >= noCache {
		t.Errorf("IMCa replay (%v) not faster than NoCache (%v) on a read-heavy trace", imca, noCache)
	}
}

func TestReplayClientsMappedModulo(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{Client: 0, Kind: OpCreate, Path: "/m/x"},
		{Client: 5, Kind: OpCreate, Path: "/m/y"}, // only 2 mounts exist
	}}
	c := cluster.New(cluster.Options{Clients: 2})
	res := Replay(c.Env, c.FSes(), tr)
	if res.Errors != 0 {
		t.Fatalf("modulo-mapped replay failed: %d errors", res.Errors)
	}
}

func TestRecorderAndReplayDirectoryOps(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1})
	tr := &Trace{}
	rec := NewRecorder(c.Mounts[0].FS, tr, 0)
	c.Env.Process("t", func(p *sim.Proc) {
		rec.Mkdir(p, "/dirs/sub")
		fd, _ := rec.Create(p, "/dirs/sub/f")
		rec.Write(p, fd, 0, blob.Synthetic(1, 0, 100))
		rec.Truncate(p, "/dirs/sub/f", 10)
		rec.Readdir(p, "/dirs/sub")
		rec.Close(p, fd)
	})
	c.Env.Run()
	kinds := map[Kind]bool{}
	for _, op := range tr.Ops {
		kinds[op.Kind] = true
	}
	for _, want := range []Kind{OpMkdir, OpTruncate, OpReaddir} {
		if !kinds[want] {
			t.Errorf("kind %s not recorded", want)
		}
	}

	// Replay on a fresh deployment must apply them all.
	c2 := cluster.New(cluster.Options{Clients: 1})
	res := Replay(c2.Env, c2.FSes(), tr)
	if res.Errors != 0 {
		t.Fatalf("replay errors: %d", res.Errors)
	}
	c2.Env.Process("verify", func(p *sim.Proc) {
		st, err := c2.Mounts[0].FS.Stat(p, "/dirs/sub/f")
		if err != nil || st.Size != 10 {
			t.Errorf("replayed truncate: %+v, %v", st, err)
		}
	})
	c2.Env.Run()
}

func TestReplayUnknownOpKindCountsError(t *testing.T) {
	tr := &Trace{Ops: []Op{{Client: 0, Kind: "bogus", Path: "/x"}}}
	c := cluster.New(cluster.Options{Clients: 1})
	res := Replay(c.Env, c.FSes(), tr)
	if res.Errors != 1 {
		t.Errorf("errors = %d, want 1", res.Errors)
	}
}
