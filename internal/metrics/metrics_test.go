package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("Stat latency", "clients", "seconds", "NoCache", "MCD(1)")
	tb.AddRow("1", 1.5, 0.9)
	tb.AddRow("64", 350, 63)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Stat latency", "clients", "NoCache", "MCD(1)", "350", "63"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, ylabel, header, rule, 2 rows
		t.Errorf("render has %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "size", "us", "A", "B,with comma")
	tb.AddRow("1", 0.5, 2)
	var sb strings.Builder
	tb.CSV(&sb)
	got := sb.String()
	want := "size,A,\"B,with comma\"\n1,0.5,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableAccessors(t *testing.T) {
	tb := NewTable("t", "x", "y", "A", "B")
	tb.AddRow("r0", 1, 2)
	tb.AddRow("r1", 3, 4)
	if tb.Rows() != 2 || tb.X(1) != "r1" {
		t.Errorf("rows/x wrong")
	}
	if tb.Value(0, "B") != 2 || tb.Value(1, "A") != 3 {
		t.Error("Value lookup wrong")
	}
	last := tb.LastRow()
	if last["A"] != 3 || last["B"] != 4 {
		t.Errorf("LastRow = %v", last)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	tb := NewTable("t", "x", "y", "A")
	tb.AddRow("r", 1, 2)
}

func TestReduction(t *testing.T) {
	if got := Reduction(100, 18); got != 0.82 {
		t.Errorf("Reduction(100,18) = %f, want 0.82", got)
	}
	if got := Reduction(0, 5); got != 0 {
		t.Errorf("Reduction with zero base = %f", got)
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	tb := NewTable("Latency sweep", "record", "µs", "NoCache", "IMCa")
	tb.AddRow("1", 100, 50)
	tb.AddRow("1K", 200, 60)
	tb.AddRow("64K", 3000, 900)
	var sb strings.Builder
	tb.Plot(&sb, 10)
	out := sb.String()
	for _, want := range []string{"Latency sweep", "NoCache", "IMCa", "*", "o", "(record)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotLogScaleKicksIn(t *testing.T) {
	tb := NewTable("t", "x", "y", "A")
	tb.AddRow("a", 1)
	tb.AddRow("b", 100000)
	var sb strings.Builder
	tb.Plot(&sb, 8)
	if !strings.Contains(sb.String(), "log10") {
		t.Error("wide-range plot did not switch to log scale")
	}
}

func TestPlotEmptyTable(t *testing.T) {
	tb := NewTable("t", "x", "y", "A")
	var sb strings.Builder
	tb.Plot(&sb, 8)
	if !strings.Contains(sb.String(), "empty") {
		t.Error("empty table plot should say so")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		500 * time.Nanosecond, 3 * time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, 5 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 500*time.Nanosecond || h.Max() != 5*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); m < time.Millisecond/2*2 && m > 2*time.Millisecond {
		t.Errorf("mean = %v", m)
	}
	// Median falls in the 2-4µs bucket.
	if p50 := h.Quantile(0.5); p50 < 2*time.Microsecond || p50 > 8*time.Microsecond {
		t.Errorf("p50 = %v", p50)
	}
	if p99 := h.Quantile(0.99); p99 < time.Millisecond {
		t.Errorf("p99 = %v too low", p99)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(2 * time.Microsecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Max() != 3*time.Millisecond {
		t.Errorf("after merge: count=%d max=%v", a.Count(), a.Max())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("quantile of empty histogram not 0")
	}
}
