// Package optrace threads a per-operation context through the simulated
// storage stack: an operation ID and a stack of spans recording where the
// operation's virtual time went (FUSE crossing, cache-bank RPC, server
// daemon, disk, …) — the latency-breakdown evidence the paper's §5–6
// analysis argues from.
//
// The context rides in the actor's (sim.Proc or sim.Task) opaque context
// slot, so xlator signatures need no extra parameter. Layers open spans
// with StartSpan and
// close them with End; both are nil-safe no-ops when no operation is
// attached, and neither advances virtual time, so tracing never perturbs a
// simulation's results.
package optrace

import (
	"sort"
	"strconv"

	"imca/internal/sim"
)

// Canonical layer names, ordered top of stack to bottom. Breakdown reports
// follow this order so tables read like the request path.
const (
	LayerOp       = "op"
	LayerFuse     = "fuse"
	LayerCMCache  = "cmcache"
	LayerMCD      = "mcd"
	LayerProtocol = "protocol"
	LayerNet      = "net"
	LayerMCDSrv   = "mcdsrv"
	LayerServer   = "server"
	LayerSMCache  = "smcache"
	LayerPosix    = "posix"
)

// layerRank orders known layers for deterministic reports; unknown layers
// sort after these, alphabetically.
var layerRank = map[string]int{
	LayerOp: 0, LayerFuse: 1, LayerCMCache: 2, LayerMCD: 3,
	LayerProtocol: 4, LayerNet: 5, LayerMCDSrv: 6, LayerServer: 7,
	LayerSMCache: 8, LayerPosix: 9,
}

// SortLayers orders layer names canonically (stack order, unknowns last).
func SortLayers(names []string) {
	sort.Slice(names, func(i, j int) bool {
		ri, iok := layerRank[names[i]]
		rj, jok := layerRank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
}

// Attr is one key/value annotation on a span (hit/miss, bytes, server
// name, …). Values are plain strings so traces stay deterministic and
// cheap to render.
type Attr struct{ Key, Value string }

// Span is one layer's timed segment of an operation. Start and Finish are
// virtual times; children opened while a span is current subtract from its
// Self time.
type Span struct {
	Layer  string
	Name   string
	Start  sim.Time
	Finish sim.Time
	Attrs  []Attr

	parent   *Span
	op       *Op
	childDur sim.Duration
	depth    int
	ended    bool
}

// Dur returns the span's total virtual duration.
func (s *Span) Dur() sim.Duration {
	if s == nil {
		return 0
	}
	return s.Finish.Sub(s.Start)
}

// Self returns the span's exclusive virtual time: its duration minus the
// durations of its direct children. Concurrent children (scatter-gather
// fan-out) can overlap each other, so Self is clamped at zero.
func (s *Span) Self() sim.Duration {
	if s == nil {
		return 0
	}
	if d := s.Dur() - s.childDur; d > 0 {
		return d
	}
	return 0
}

// Depth returns the span's nesting depth at open time (root = 0).
func (s *Span) Depth() int {
	if s == nil {
		return 0
	}
	return s.depth
}

// SetAttr annotates the span; it is a nil-safe no-op without tracing.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	//imcalint:allow allocfree tracing-on only (s is nil otherwise); amortised growth of a span's few attributes
	s.Attrs = append(s.Attrs, Attr{key, value})
}

// SetAttrInt annotates the span with v in decimal. The number is formatted
// only when the span exists, so untraced operations — the common case —
// pay nothing for an annotation they would discard.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{key, strconv.FormatInt(v, 10)})
}

// Attr returns the value of the first attribute named key ("" if absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// End closes the span at a's current virtual time, folds its duration
// into its parent's child accounting, and records it on the operation. It
// is a nil-safe no-op, and closing twice is ignored.
func (s *Span) End(a sim.Actor) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Finish = a.Now()
	if s.parent != nil {
		s.parent.childDur += s.Dur()
	}
	//imcalint:allow allocfree tracing-on only; amortised growth of the operation's span list
	s.op.Spans = append(s.op.Spans, s)
	if st, ok := a.Ctx().(*state); ok && st.cur == s {
		st.cur = s.parent
	}
}

// Op is the per-operation context: identity and the recorded spans. One Op may span several processes (RPC handlers, scatter-gather
// workers) — Fork hands it to a helper process.
type Op struct {
	ID   uint64
	Name string
	// Start and Finish bracket the operation (set by Collector.Begin/End).
	Start  sim.Time
	Finish sim.Time
	// Spans lists completed spans in completion order.
	Spans []*Span
}

// Dur returns the operation's end-to-end virtual duration.
func (o *Op) Dur() sim.Duration { return o.Finish.Sub(o.Start) }

// LayerTime is a layer's summed exclusive time within one operation.
type LayerTime struct {
	Layer string
	Self  sim.Duration
}

// ByLayer partitions the operation's traced time among layers, in
// canonical stack order: every instant covered by at least one span is
// attributed to exactly one layer — the deepest span active at that
// instant (ties broken by stack rank, then by latest start). Because this
// is a partition, the layer times sum exactly to the root span's duration
// (and hence to the operation's end-to-end time when a root span covers
// it), even when scatter-gather helpers run spans concurrently — a plain
// per-span exclusive-time sum would double-count their overlap.
func (o *Op) ByLayer() []LayerTime {
	if len(o.Spans) == 0 {
		return nil
	}
	// Sweep over the distinct span boundaries; each elementary interval
	// belongs wholly to one set of active spans.
	times := make([]sim.Time, 0, 2*len(o.Spans))
	for _, s := range o.Spans {
		times = append(times, s.Start, s.Finish)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	sums := make(map[string]sim.Duration)
	for i := 0; i+1 < len(times); i++ {
		lo, hi := times[i], times[i+1]
		if hi <= lo {
			continue
		}
		var best *Span
		for _, s := range o.Spans {
			if s.Start > lo || s.Finish < hi {
				continue
			}
			if best == nil || deeper(s, best) {
				best = s
			}
		}
		if best != nil {
			sums[best.Layer] += hi.Sub(lo)
		}
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	SortLayers(names)
	out := make([]LayerTime, len(names))
	for i, n := range names {
		out[i] = LayerTime{n, sums[n]}
	}
	return out
}

// deeper reports whether a should win over b when both are active at the
// same instant: nesting depth first, then stack rank (lower layers win),
// then the later-started span. The rules are deterministic so traces
// aggregate reproducibly.
func deeper(a, b *Span) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	ra, aok := layerRank[a.Layer]
	rb, bok := layerRank[b.Layer]
	if aok && bok && ra != rb {
		return ra > rb
	}
	return a.Start > b.Start
}

// state is what lives in an actor's context slot: the operation plus this
// process's or task's current (innermost open) span. Each actor has its own
// span cursor, so concurrent helpers nest correctly under the span that
// spawned them without sharing a stack.
type state struct {
	op  *Op
	cur *Span
}

// Attach associates op with a; subsequent StartSpan calls on a record into
// it. It replaces any previously attached operation.
func Attach(a sim.Actor, op *Op) { a.SetCtx(&state{op: op}) }

// Detach removes and returns a's operation (nil if none).
func Detach(a sim.Actor) *Op {
	st, ok := a.Ctx().(*state)
	if !ok {
		return nil
	}
	a.SetCtx(nil)
	return st.op
}

// Fork copies the parent's operation context onto a child actor, so spans
// the child opens nest under the parent's current span. Layers that spawn
// helpers on the operation's critical path (RPC handlers, scatter-gather
// workers) call this right after creating the child; it must run before
// the child first executes, which is guaranteed when the parent is the
// running actor. No-op when the parent has no context.
func Fork(parent, child sim.Actor) {
	st, ok := parent.Ctx().(*state)
	if !ok {
		return
	}
	child.SetCtx(&state{op: st.op, cur: st.cur})
}

// StartSpan opens a span on a's operation and makes it the actor's
// current span. It returns nil — still safe to annotate and end — when no
// operation is attached, and costs no virtual time either way.
func StartSpan(a sim.Actor, layer, name string) *Span {
	st, ok := a.Ctx().(*state)
	if !ok {
		return nil
	}
	//imcalint:allow allocfree tracing-on only: reached once an operation is attached; untraced actors returned nil above
	s := &Span{
		Layer:  layer,
		Name:   name,
		Start:  a.Now(),
		parent: st.cur,
		op:     st.op,
	}
	if st.cur != nil {
		s.depth = st.cur.depth + 1
	}
	st.cur = s
	return s
}
