package optrace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"imca/internal/sim"
)

// TestSpanNestingAndSelf checks that exclusive times telescope: the sum of
// every span's Self equals the root span's duration.
func TestSpanNestingAndSelf(t *testing.T) {
	env := sim.NewEnv()
	col := NewCollector()
	env.Process("op", func(p *sim.Proc) {
		col.Begin(p, "read")
		root := StartSpan(p, LayerFuse, "read")
		p.Sleep(10 * time.Microsecond)
		child := StartSpan(p, LayerCMCache, "read")
		p.Sleep(30 * time.Microsecond)
		grand := StartSpan(p, LayerMCD, "get")
		grand.SetAttr("result", "hit")
		p.Sleep(50 * time.Microsecond)
		grand.End(p)
		child.End(p)
		p.Sleep(5 * time.Microsecond)
		root.End(p)
		col.End(p)
	})
	env.Run()

	op := col.Last
	if op == nil || len(op.Spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", op)
	}
	if op.Dur() != 95*time.Microsecond {
		t.Fatalf("op duration = %v, want 95µs", op.Dur())
	}
	var sum sim.Duration
	for _, lt := range op.ByLayer() {
		sum += lt.Self
	}
	if sum != op.Dur() {
		t.Fatalf("layer selves sum to %v, want %v", sum, op.Dur())
	}
	by := op.ByLayer()
	if by[0].Layer != LayerFuse || by[0].Self != 15*time.Microsecond {
		t.Fatalf("fuse self = %+v, want 15µs", by[0])
	}
	if by[1].Layer != LayerCMCache || by[1].Self != 30*time.Microsecond {
		t.Fatalf("cmcache self = %+v, want 30µs", by[1])
	}
	if by[2].Layer != LayerMCD || by[2].Self != 50*time.Microsecond {
		t.Fatalf("mcd self = %+v, want 50µs", by[2])
	}
}

// TestNilSafety: with no operation attached, spans are nil and every
// method is a no-op.
func TestNilSafety(t *testing.T) {
	env := sim.NewEnv()
	env.Process("bare", func(p *sim.Proc) {
		sp := StartSpan(p, LayerFuse, "read")
		if sp != nil {
			t.Errorf("StartSpan without op = %v, want nil", sp)
		}
		sp.SetAttr("k", "v")
		sp.End(p)
		if sp.Dur() != 0 || sp.Self() != 0 || sp.Attr("k") != "" {
			t.Error("nil span accessors should return zero values")
		}
		if op := Detach(p); op != nil {
			t.Errorf("Detach without op = %v", op)
		}
	})
	env.Run()
}

// TestSetAttrInt: the integer annotation renders exactly what
// SetAttr(strconv.FormatInt(v, 10)) did, and on a nil span — tracing off —
// it formats nothing at all.
func TestSetAttrInt(t *testing.T) {
	env := sim.NewEnv()
	col := NewCollector()
	env.Process("p", func(p *sim.Proc) {
		col.Begin(p, "op")
		sp := StartSpan(p, LayerMCD, "get")
		sp.SetAttrInt("bytes", 32768)
		sp.SetAttrInt("delta", -7)
		sp.SetAttr("result", "hit")
		sp.End(p)
		col.End(p)
		want := []Attr{{"bytes", "32768"}, {"delta", "-7"}, {"result", "hit"}}
		if len(sp.Attrs) != len(want) {
			t.Fatalf("attrs = %v, want %v", sp.Attrs, want)
		}
		for i := range want {
			if sp.Attrs[i] != want[i] {
				t.Errorf("attr %d = %v, want %v", i, sp.Attrs[i], want[i])
			}
		}
	})
	env.Run()
	var off *Span
	if avg := testing.AllocsPerRun(100, func() { off.SetAttrInt("bytes", 1<<40) }); avg != 0 {
		t.Errorf("SetAttrInt on a nil span allocated %.0f times, want 0", avg)
	}
}

// TestForkNesting: spans opened by a forked child nest under the parent's
// current span, and deadline state is shared through the same Op.
func TestForkNesting(t *testing.T) {
	env := sim.NewEnv()
	col := NewCollector()
	env.Process("parent", func(p *sim.Proc) {
		col.Begin(p, "read")
		root := StartSpan(p, LayerCMCache, "read")
		done := sim.NewEvent(env)
		child := env.Process("worker", func(q *sim.Proc) {
			sp := StartSpan(q, LayerMCD, "get")
			q.Sleep(20 * time.Microsecond)
			sp.End(q)
			done.Trigger(nil)
		})
		Fork(p, child)
		p.Await(func(t *sim.Task) { done.WaitFn(t.End) })
		root.End(p)
		op := col.End(p)
		if len(op.Spans) != 2 {
			t.Errorf("want 2 spans, got %d", len(op.Spans))
		}
		mcd := op.Spans[0]
		if mcd.Layer != LayerMCD || mcd.parent != root {
			t.Errorf("child span should nest under root, got %+v", mcd)
		}
		if root.Self() != 0 || mcd.Self() != 20*time.Microsecond {
			t.Errorf("self times: root %v (want 0), mcd %v (want 20µs)", root.Self(), mcd.Self())
		}
	})
	env.Run()
}

// TestBreakdownReport exercises aggregation and the textual report.
func TestBreakdownReport(t *testing.T) {
	env := sim.NewEnv()
	col := NewCollector()
	env.Process("ops", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			col.Begin(p, "read")
			root := StartSpan(p, LayerFuse, "read")
			p.Sleep(40 * time.Microsecond)
			inner := StartSpan(p, LayerPosix, "read")
			p.Sleep(60 * time.Microsecond)
			inner.End(p)
			root.End(p)
			col.End(p)
		}
	})
	env.Run()

	b := col.Breakdown()
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	if got := b.LayerMeanUs(LayerFuse); got != 40 {
		t.Errorf("fuse mean = %vµs, want 40", got)
	}
	if got := b.LayerMeanUs(LayerPosix); got != 60 {
		t.Errorf("posix mean = %vµs, want 60", got)
	}
	if got := b.TotalMeanUs(); got != 100 {
		t.Errorf("total mean = %vµs, want 100", got)
	}
	var sb strings.Builder
	b.Report(&sb)
	out := sb.String()
	for _, want := range []string{"fuse", "posix", "Σ layers", "100.0µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	other := NewBreakdown()
	other.Merge(b)
	other.Merge(b)
	if other.Count() != 8 {
		t.Errorf("merged count = %d, want 8", other.Count())
	}
}

// TestBreakdownReportQuantileColumns pins the report layout: the quantile
// columns are part of the tool's interface (scripts and docs show them), so
// the header is matched exactly, and the quantiles must be ordered.
func TestBreakdownReportQuantileColumns(t *testing.T) {
	env := sim.NewEnv()
	col := NewCollector()
	env.Process("ops", func(p *sim.Proc) {
		// A latency spread so p50 and p99 land in different buckets.
		for _, us := range []int{10, 10, 10, 10, 10, 10, 10, 10, 10, 300} {
			col.Begin(p, "read")
			root := StartSpan(p, LayerFuse, "read")
			p.Sleep(time.Duration(us) * time.Microsecond)
			root.End(p)
			col.End(p)
		}
	})
	env.Run()

	var sb strings.Builder
	col.Breakdown().Report(&sb)
	lines := strings.Split(sb.String(), "\n")
	wantHeader := fmt.Sprintf("%-9s  %12s  %7s  %10s  %10s  %10s",
		"layer", "mean self", "share", "p50 self", "p95 self", "p99 self")
	if lines[0] != wantHeader {
		t.Errorf("header = %q\nwant     %q", lines[0], wantHeader)
	}
	if lines[1] != strings.Repeat("-", 68) {
		t.Errorf("separator = %q", lines[1])
	}

	b := col.Breakdown()
	h := b.Layer(LayerFuse)
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles out of order: p50 %v p95 %v p99 %v", p50, p95, p99)
	}
	if p99 <= p50 {
		t.Errorf("p99 (%v) not above p50 (%v) despite the outlier", p99, p50)
	}
	for _, q := range []string{p50.String(), p99.String()} {
		if !strings.Contains(sb.String(), q) {
			t.Errorf("report missing quantile %s:\n%s", q, sb.String())
		}
	}
}

// Collector.Keep retains finished operations for export; off by default.
func TestCollectorKeep(t *testing.T) {
	env := sim.NewEnv()
	off, on := NewCollector(), NewCollector()
	on.Keep = true
	env.Process("ops", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			off.Begin(p, "a")
			off.End(p)
			on.Begin(p, "b")
			p.Sleep(time.Microsecond)
			on.End(p)
		}
	})
	env.Run()
	if n := len(off.Ops()); n != 0 {
		t.Errorf("default collector retained %d ops", n)
	}
	ops := on.Ops()
	if len(ops) != 3 {
		t.Fatalf("Keep collector retained %d ops, want 3", len(ops))
	}
	for i, op := range ops {
		if op.Name != "b" || op.Finish <= op.Start {
			t.Errorf("op %d malformed: %+v", i, op)
		}
	}
}
