package fabric

import (
	"testing"

	"imca/internal/optrace"
	"imca/internal/sim"
)

// TestCallSpans: a traced call records a net span whose duration equals
// the caller-observed RPC time, with the request segment nested inside.
func TestCallSpans(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	col := optrace.NewCollector()
	env.Process("client", func(p *sim.Proc) {
		col.Begin(p, "rpc")
		start := p.Now()
		if _, err := call(p, a, b, "echo", Bytes(64)); err != nil {
			t.Errorf("Call: %v", err)
		}
		rtt := p.Now().Sub(start)
		op := col.End(p)
		var outer, request *optrace.Span
		for _, s := range op.Spans {
			switch s.Name {
			case "echo":
				outer = s
			case "request":
				request = s
			}
		}
		if outer == nil || request == nil {
			t.Fatalf("missing spans: outer=%v request=%v", outer, request)
		}
		if outer.Dur() != rtt {
			t.Errorf("net span %v != observed RTT %v", outer.Dur(), rtt)
		}
		if request.Depth() != outer.Depth()+1 {
			t.Errorf("request segment not nested under the call span")
		}
		if outer.Attr("to") != "b" {
			t.Errorf("net span to=%q, want b", outer.Attr("to"))
		}
	})
	env.Run()
}

// TestCallUntracedUnchanged: without an operation context attached, the
// RPC's virtual timing must be identical to a traced one — tracing costs
// zero virtual time.
func TestCallUntracedUnchanged(t *testing.T) {
	rtt := func(traced bool) sim.Duration {
		env, a, b := newPair(t, IPoIB)
		col := optrace.NewCollector()
		var d sim.Duration
		env.Process("client", func(p *sim.Proc) {
			if traced {
				col.Begin(p, "rpc")
			}
			start := p.Now()
			call(p, a, b, "echo", Bytes(4096))
			d = p.Now().Sub(start)
			if traced {
				col.End(p)
			}
		})
		env.Run()
		return d
	}
	if plain, traced := rtt(false), rtt(true); plain != traced {
		t.Errorf("tracing changed RPC time: untraced %v, traced %v", plain, traced)
	}
}
