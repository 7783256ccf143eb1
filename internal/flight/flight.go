// Package flight is the post-mortem layer of the observability stack: a
// bounded ring of fixed-size structured records capturing the rare,
// interesting transitions — a cache miss forwarded down a layer, an MCD
// ejected, probed or readmitted, a fault armed or fired, a read failed over
// to its replica, an oracle violation. Counters say how often
// those happened; the flight recorder says in what order, when, and to
// whom, which is what a fault-run post-mortem actually needs.
//
// The recorder follows the same contract as the other instruments:
// appending costs no virtual time, schedules nothing, and allocates
// nothing (the ring is preallocated and record strings are pre-existing
// constants or interned names), and a nil *Recorder is a no-op, so every
// layer appends unconditionally and a run with a recorder attached is
// byte-identical to one without. All appends happen in single-threaded
// simulation context, so the dump order — ring order, oldest first — is
// deterministic.
package flight

import (
	"fmt"
	"io"

	"imca/internal/sim"
)

// Kind classifies a record.
type Kind uint8

const (
	// KindForward is a cache layer forwarding a miss to the layer below.
	KindForward Kind = iota
	// KindEject is a client ejecting an MCD after consecutive failures.
	KindEject
	// KindProbe is a client piggybacking a probe onto an ejected MCD.
	KindProbe
	// KindReadmit is an ejected MCD readmitted after a successful probe.
	KindReadmit
	// KindFaultArmed is a fault-plan event scheduled by the injector.
	KindFaultArmed
	// KindFaultFired is a fault-plan event taking effect.
	KindFaultFired
	// KindViolation is a fault.Oracle safety-property violation.
	KindViolation
	// KindSuspect is a client soft-ejecting a gray MCD on its service-time
	// EWMA crossing the suspicion threshold (Arg: the EWMA, ns).
	KindSuspect
	// KindSuspectClear is a probe clearing a suspicion (Arg: the probe's
	// service time, ns).
	KindSuspectClear
	// KindFailover is a read retried against (or routed to) the replica
	// copy of its key.
	KindFailover
)

// String names the kind, fixed-width enough for aligned dumps.
func (k Kind) String() string {
	switch k {
	case KindForward:
		return "forward"
	case KindEject:
		return "eject"
	case KindProbe:
		return "probe"
	case KindReadmit:
		return "readmit"
	case KindFaultArmed:
		return "fault-armed"
	case KindFaultFired:
		return "fault-fired"
	case KindViolation:
		return "violation"
	case KindSuspect:
		return "suspect"
	case KindSuspectClear:
		return "suspect-clear"
	case KindFailover:
		return "failover"
	}
	return "?"
}

// Record is one fixed-size flight entry. Actor is who recorded it (a node
// or layer name), Note the subject (a peer name, an op, a fault target),
// Arg a kind-specific integer (a failure count, a byte size, an offset).
type Record struct {
	Seq   uint64
	At    sim.Time
	Kind  Kind
	Actor string
	Note  string
	Arg   int64
}

// Recorder is the bounded ring. The zero value and nil are both valid,
// permanently empty recorders; New allocates one that actually records.
type Recorder struct {
	ring  []Record
	next  int
	total uint64
}

// New returns a recorder keeping the last capacity records.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1
	}
	return &Recorder{ring: make([]Record, capacity)}
}

// Append records one entry, overwriting the oldest once the ring is full.
// Safe on a nil receiver; never allocates.
//
//imcalint:hotpath ring write on every recorded event; "never allocates" above is this annotation's claim
func (r *Recorder) Append(at sim.Time, kind Kind, actor, note string, arg int64) {
	if r == nil || len(r.ring) == 0 {
		return
	}
	r.total++
	r.ring[r.next] = Record{Seq: r.total, At: at, Kind: kind, Actor: actor, Note: note, Arg: arg}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
}

// Len returns the number of records currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.total < uint64(len(r.ring)) {
		return int(r.total)
	}
	return len(r.ring)
}

// Total returns the number of records ever appended, including those the
// ring has since overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Records returns the retained records oldest-first.
func (r *Recorder) Records() []Record {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	if r.total <= uint64(len(r.ring)) {
		return append(out, r.ring[:n]...)
	}
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Dump writes the retained records oldest-first, one aligned line each:
// sequence number, virtual timestamp, kind, actor, note, argument.
func (r *Recorder) Dump(w io.Writer) {
	recs := r.Records()
	if len(recs) == 0 {
		fmt.Fprintln(w, "(no flight records)")
		return
	}
	dropped := r.Total() - uint64(len(recs))
	if dropped > 0 {
		fmt.Fprintf(w, "(%d older records overwritten)\n", dropped)
	}
	for _, rec := range recs {
		fmt.Fprintf(w, "%6d  %12v  %-11s  %-18s  %-18s  %d\n",
			rec.Seq, rec.At, rec.Kind, rec.Actor, rec.Note, rec.Arg)
	}
}
