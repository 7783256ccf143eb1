// Package fault injects deterministic failures into a simulated deployment
// and checks that the system degrades instead of corrupting data.
//
// A Plan is a declarative schedule of fault events — MCD crashes, link
// cuts, disk slowdowns, brick outages — at virtual-clock offsets. An
// Injector arms a plan against a cluster by registering sim.Env timers, so
// the faults land at exact, reproducible instants regardless of host
// scheduling: the same plan over the same workload produces byte-identical
// runs. An Oracle wraps every mount of a deployment and keeps one history
// of the mutations they issue, with the virtual interval each ran over; it
// judges every read, stat and open by the regular-register rule,
// mechanizing the paper's §4.4 correctness argument (cache loss must never
// lose a write or surface a stale read) as an executable invariant across
// any number of clients. AuditReplicas and AuditResident check the bank
// itself once a run has drained.
package fault

import (
	"fmt"
	"strings"

	"imca/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// MCDCrash kills one memcached daemon: its contents are lost and
	// requests are refused until the matching MCDRecover.
	MCDCrash Kind = iota
	// MCDRecover restarts a crashed daemon (empty, as a restarted
	// memcached would be).
	MCDRecover
	// LinkCut partitions the Target↔Peer node pair: calls in flight abort
	// and new calls fail after the connect timeout.
	LinkCut
	// LinkHeal restores a cut or degraded pair to full health.
	LinkHeal
	// LinkDegrade scales a pair's performance by Latency (factor on wire
	// latency) and Bandwidth (factor on usable bandwidth, 0.5 = half).
	LinkDegrade
	// DiskSlow stretches every access of the target brick's RAID members
	// by Factor (a failing spindle); Factor 1 restores full speed.
	DiskSlow
	// BrickFail takes a brick daemon down: requests are refused with
	// ErrServerDown, storage stays intact.
	BrickFail
	// BrickRecover restarts a failed brick daemon over its storage.
	BrickRecover
	// Partition cuts every link between two node groups at once — the
	// fabric-level group cut a switch failure produces. Target and Peer
	// each name one group as a "+"-joined node list (e.g. Target
	// "client0+client1", Peer "mcd0+mcd1").
	Partition
	// PartitionHeal restores every link between the two groups.
	PartitionHeal
	// LinkFlap repeatedly cuts and heals the Target↔Peer pair: Count
	// cycles of Period each, cut for the first half of every cycle. The
	// flapping link is the failure ejection handles worst — the server
	// keeps coming back just long enough to be trusted again.
	LinkFlap
	// GrayNode makes the target MCD gray: every service-time charge is
	// stretched by Factor (≥ 1) while the daemon keeps answering
	// correctly, so error-counting detectors never fire. Factor 1
	// restores full speed, as DiskSlow does.
	GrayNode
)

// kindNames orders display names by Kind value.
var kindNames = [...]string{
	"mcd-crash", "mcd-recover",
	"link-cut", "link-heal", "link-degrade",
	"disk-slow",
	"brick-fail", "brick-recover",
	"partition", "partition-heal", "link-flap",
	"gray-node",
}

// String returns the kind's plan-notation name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// needsPeer reports whether the kind addresses a node pair (or, for the
// partition kinds, a pair of node groups).
func (k Kind) needsPeer() bool {
	switch k {
	case LinkCut, LinkHeal, LinkDegrade, Partition, PartitionHeal, LinkFlap:
		return true
	}
	return false
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual-clock offset from the instant the plan is armed.
	At sim.Duration
	// Kind selects the fault type.
	Kind Kind
	// Target names what fails: an MCD ("mcd0"), a brick ("brick0", or its
	// node name "gfs-server"/"gfs-brick0"), or — for link events — the
	// first endpoint's node name (e.g. "client0").
	Target string
	// Peer is the second endpoint of a link event (unused otherwise).
	Peer string
	// Latency and Bandwidth are LinkDegrade's factors; both must be
	// positive there and are ignored elsewhere.
	Latency, Bandwidth float64
	// Factor is DiskSlow's and GrayNode's stretch (≥ 1; 1 restores full
	// speed).
	Factor float64
	// Period and Count shape a LinkFlap: Count cut/heal cycles of Period
	// each (cut for the first half of every cycle).
	Period sim.Duration
	Count  int
}

// String renders the event in replayable plan notation.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%v %s %s", sim.Duration(e.At), e.Kind, e.Target)
	if e.Kind.needsPeer() {
		fmt.Fprintf(&b, "<->%s", e.Peer)
	}
	switch e.Kind {
	case LinkDegrade:
		fmt.Fprintf(&b, " lat=%g bw=%g", e.Latency, e.Bandwidth)
	case DiskSlow, GrayNode:
		fmt.Fprintf(&b, " factor=%g", e.Factor)
	case LinkFlap:
		fmt.Fprintf(&b, " period=%v count=%d", sim.Duration(e.Period), e.Count)
	}
	return b.String()
}

// Plan is a fault schedule: events at non-decreasing offsets.
type Plan struct {
	// Name labels the plan in telemetry and error messages.
	Name string
	// Events fire in order; equal offsets fire in declaration order.
	Events []Event
}

// String renders the whole plan, one event per line; a failing fuzz case
// prints it beside the decoded trace.
func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q:\n", pl.Name)
	for _, e := range pl.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// validate checks plan shape (offsets and parameters); target resolution
// is the injector's job since it needs the deployment.
func (pl *Plan) validate() error {
	var prev sim.Duration
	for i, e := range pl.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d: negative offset %v", i, e.At)
		}
		if e.At < prev {
			return fmt.Errorf("fault: event %d: offset %v before previous %v (events must be in order)", i, e.At, prev)
		}
		prev = e.At
		if e.Target == "" {
			return fmt.Errorf("fault: event %d (%s): empty target", i, e.Kind)
		}
		if e.Kind.needsPeer() && e.Peer == "" {
			return fmt.Errorf("fault: event %d (%s): link event needs a peer", i, e.Kind)
		}
		switch e.Kind {
		case LinkDegrade:
			if e.Latency <= 0 || e.Bandwidth <= 0 {
				return fmt.Errorf("fault: event %d: non-positive degrade factors %g, %g", i, e.Latency, e.Bandwidth)
			}
		case DiskSlow:
			if e.Factor < 1 {
				return fmt.Errorf("fault: event %d: disk slowdown factor %g below 1", i, e.Factor)
			}
		case GrayNode:
			if e.Factor < 1 {
				return fmt.Errorf("fault: event %d: gray-node factor %g below 1", i, e.Factor)
			}
		case LinkFlap:
			if e.Period <= 0 {
				return fmt.Errorf("fault: event %d: non-positive flap period %v", i, e.Period)
			}
			if e.Count < 1 {
				return fmt.Errorf("fault: event %d: flap count %d below 1", i, e.Count)
			}
		case MCDCrash, MCDRecover, LinkCut, LinkHeal, BrickFail, BrickRecover, Partition, PartitionHeal:
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}
