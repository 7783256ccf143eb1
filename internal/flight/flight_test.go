package flight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"imca/internal/flight"
	"imca/internal/sim"
)

func at(us int64) sim.Time { return sim.Time(0).Add(sim.Duration(us) * time.Microsecond) }

func TestRecorderKeepsOrder(t *testing.T) {
	r := flight.New(8)
	r.Append(at(1), flight.KindForward, "client0", "read", 4096)
	r.Append(at(2), flight.KindEject, "client0", "mcd0", 3)
	r.Append(at(3), flight.KindReadmit, "client0", "mcd0", 0)
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("Len=%d Total=%d, want 3 3", r.Len(), r.Total())
	}
	recs := r.Records()
	for i, want := range []flight.Kind{flight.KindForward, flight.KindEject, flight.KindReadmit} {
		if recs[i].Kind != want {
			t.Errorf("record %d kind %v, want %v", i, recs[i].Kind, want)
		}
		if recs[i].Seq != uint64(i+1) {
			t.Errorf("record %d seq %d, want %d", i, recs[i].Seq, i+1)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := flight.New(4)
	for i := 1; i <= 10; i++ {
		r.Append(at(int64(i)), flight.KindForward, "a", "n", int64(i))
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("Len=%d Total=%d, want 4 10", r.Len(), r.Total())
	}
	recs := r.Records()
	for i, rec := range recs {
		if want := int64(7 + i); rec.Arg != want || rec.Seq != uint64(want) {
			t.Errorf("record %d = seq %d arg %d, want %d (last 4, oldest first)",
				i, rec.Seq, rec.Arg, want)
		}
	}
	var sb strings.Builder
	r.Dump(&sb)
	if !strings.HasPrefix(sb.String(), "(6 older records overwritten)\n") {
		t.Errorf("dump missing overwrite header:\n%s", sb.String())
	}
}

func TestRecorderNilAndEmpty(t *testing.T) {
	var r *flight.Recorder
	r.Append(at(1), flight.KindEject, "a", "b", 0) // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Records() != nil {
		t.Error("nil recorder retained something")
	}
	var sb strings.Builder
	r.Dump(&sb)
	if sb.String() != "(no flight records)\n" {
		t.Errorf("nil dump = %q", sb.String())
	}

	var zero flight.Recorder // zero value: valid, permanently empty
	zero.Append(at(1), flight.KindEject, "a", "b", 0)
	if zero.Len() != 0 {
		t.Error("zero-value recorder retained a record")
	}
}

func TestRecorderDumpDeterministic(t *testing.T) {
	build := func() string {
		r := flight.New(3)
		r.Append(at(5), flight.KindFaultArmed, "mcd-crash", "mcd0", 42)
		r.Append(at(6), flight.KindFaultFired, "mcd-crash", "mcd0", 0)
		r.Append(at(7), flight.KindEject, "client0", "mcd0", 0)
		r.Append(at(8), flight.KindViolation, "oracle", "stale read", 1)
		var sb strings.Builder
		r.Dump(&sb)
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("dumps differ:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"fault-fired", "eject", "violation", "stale read"} {
		if !strings.Contains(a, want) {
			t.Errorf("dump missing %q:\n%s", want, a)
		}
	}
	if strings.Contains(a, "fault-armed") {
		t.Error("overwritten record still present in a 3-slot ring")
	}
}

// The acceptance bar: appending is a preallocated ring-slot write, so hot
// paths (a forwarded miss, ejection) can append unconditionally.
func TestFlightAppendZeroAlloc(t *testing.T) {
	r := flight.New(64)
	actor, note := "client0", "mcd0"
	if n := testing.AllocsPerRun(1000, func() {
		r.Append(at(1), flight.KindProbe, actor, note, 7)
	}); n != 0 {
		t.Errorf("Append allocates %v/op, want 0", n)
	}
	var nilR *flight.Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilR.Append(at(1), flight.KindProbe, actor, note, 7)
	}); n != 0 {
		t.Errorf("nil Append allocates %v/op, want 0", n)
	}
}

func BenchmarkFlightAppend(b *testing.B) {
	r := flight.New(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(at(int64(i)), flight.KindForward, "client0", "read", int64(i))
	}
}

// TestEveryKindIsNamed: each Kind constant flight.go declares has its own
// name in Kind.String, so a dump never prints "?" for a record some layer
// can append. The constants are read from the source, so adding one without
// its String case fails here.
func TestEveryKindIsNamed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "flight.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Kind") {
					declared++
				}
			}
		}
		return true
	})
	if declared == 0 {
		t.Fatal("found no Kind constants in flight.go")
	}
	seen := make(map[string]flight.Kind)
	for k := flight.Kind(0); int(k) < declared; k++ {
		name := k.String()
		if name == "?" {
			t.Errorf("Kind %d is declared but Kind.String does not name it", k)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("Kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := flight.Kind(declared).String(); got != "?" {
		t.Errorf("Kind %d is named %q but not declared", declared, got)
	}
}
