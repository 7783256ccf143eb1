package fabric

import (
	"errors"
	"fmt"
	"time"

	"imca/internal/sim"
)

// ErrUnreachable is returned by Call when the link between the caller and
// the destination has been cut (see Network.CutLink). A fresh call on a cut
// link fails after the network's connect timeout — the simulated analogue
// of a TCP connect timing out against a partitioned peer — and a call
// already in flight when the cut lands fails at the cut instant, like a
// connection reset.
var ErrUnreachable = errors.New("fabric: destination unreachable")

// DefaultConnectTimeout is how long a call to a partitioned destination
// waits before failing with ErrUnreachable. It is deliberately much longer
// than one healthy RPC round trip: a caller that keeps retrying a dead peer
// pays for it, which is exactly the degradation the memcache client's
// ejection logic exists to avoid.
const DefaultConnectTimeout = 1 * time.Millisecond

// linkKey identifies the unordered pair of nodes a link joins.
type linkKey struct{ a, b string }

func mkLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// linkState is the fault status of one node pair. It exists only for pairs
// a fault API has touched or that have carried a call while faults were
// enabled; absence means a healthy link.
type linkState struct {
	cut bool
	// latFactor multiplies wire latency; bwFactor scales available
	// bandwidth (0.5 = half speed). Both 1 on a healthy link.
	latFactor, bwFactor float64
	// inflight lists the done events of calls currently traversing this
	// link, in call-start order. Pure bookkeeping: no simulation activity
	// until a cut aborts them.
	inflight []*sim.Event
}

// scaled applies the link's degradation to a leg's latency and
// serialization time.
func (ls *linkState) scaled(lat, xmit sim.Duration) (sim.Duration, sim.Duration) {
	if ls.latFactor != 1 {
		lat = sim.Duration(float64(lat) * ls.latFactor)
	}
	if ls.bwFactor != 1 {
		xmit = sim.Duration(float64(xmit) / ls.bwFactor)
	}
	return lat, xmit
}

func (ls *linkState) drop(ev *sim.Event) {
	for i, e := range ls.inflight {
		if e == ev {
			ls.inflight = append(ls.inflight[:i], ls.inflight[i+1:]...)
			return
		}
	}
}

// unreachableMark is the sentinel triggered into an in-flight call's done
// event when its link is cut; Call translates it to ErrUnreachable.
type unreachableMark struct{}

// netFaults carries a network's fault state. It is nil until the first
// fault API call, and Call's fast path only ever checks the pointer — an
// unfaulted network schedules exactly the same events as one built before
// this file existed (zero-cost abstention).
type netFaults struct {
	links map[linkKey]*linkState
	// newLink constructs a healthy linkState. It is a stored function
	// value so the construction stays off the statically-audited hot
	// chain: link() runs on every faults-enabled call, but constructs
	// only the first time a pair is seen (a cold, bounded event — there
	// are at most nodes² pairs), the same sanctioned idiom as the
	// kernel's deferred-event dispatch.
	newLink func() *linkState
}

// healthyLink builds the default (uncut, undegraded) link state.
func healthyLink() *linkState { return &linkState{latFactor: 1, bwFactor: 1} }

// enableFaults allocates the fault table on first use. Calls that began
// before the table existed are untracked and immune to later cuts; arm
// fault plans before the traffic they should affect.
func (n *Network) enableFaults() *netFaults {
	if n.faults == nil {
		n.faults = &netFaults{
			links:   make(map[linkKey]*linkState),
			newLink: healthyLink,
		}
	}
	return n.faults
}

// EnableFaults allocates the network's fault table immediately, so calls
// that begin after this point are tracked and abortable by a later CutLink.
// The fault injector calls it when arming a plan that contains link events;
// without it the table would only appear when the first cut lands, leaving
// calls already in flight at that instant untracked and immune.
func (n *Network) EnableFaults() { n.enableFaults() }

// link returns the pair's state, creating a healthy one if absent.
func (fa *netFaults) link(a, b string) *linkState {
	k := mkLinkKey(a, b)
	ls := fa.links[k]
	if ls == nil {
		ls = fa.newLink()
		fa.links[k] = ls
	}
	return ls
}

// CutLink partitions the a↔b node pair. New calls between the pair fail
// with ErrUnreachable after the connect timeout; calls in flight right now
// are aborted at this instant (their responses, if any, are dropped). The
// order of the two names does not matter. Cutting an already-cut link is a
// no-op.
func (n *Network) CutLink(a, b string) {
	ls := n.enableFaults().link(a, b)
	if ls.cut {
		return
	}
	ls.cut = true
	// Abort in-flight calls in call-start order. Trigger is first-value-
	// wins, so a response that landed earlier in this same instant stands.
	aborted := ls.inflight
	ls.inflight = nil
	for _, ev := range aborted {
		ev.Trigger(unreachableMark{})
	}
}

// HealLink restores the a↔b pair to a healthy link, clearing a cut and any
// degradation.
func (n *Network) HealLink(a, b string) {
	ls := n.enableFaults().link(a, b)
	ls.cut = false
	ls.latFactor, ls.bwFactor = 1, 1
}

// DegradeLink scales the a↔b pair's performance: latencyFactor multiplies
// the wire latency and bandwidthFactor scales the usable bandwidth (e.g.
// 4, 0.25 = four times the latency at a quarter of the speed). Factors
// must be positive; 1, 1 restores full health. Degradation applies to
// whole legs as they begin, including response legs of calls already in
// service.
func (n *Network) DegradeLink(a, b string, latencyFactor, bandwidthFactor float64) {
	if latencyFactor <= 0 || bandwidthFactor <= 0 {
		panic(fmt.Sprintf("fabric: non-positive degrade factors %v, %v", latencyFactor, bandwidthFactor))
	}
	ls := n.enableFaults().link(a, b)
	ls.latFactor, ls.bwFactor = latencyFactor, bandwidthFactor
}

// LinkCut reports whether the a↔b pair is currently partitioned.
func (n *Network) LinkCut(a, b string) bool {
	if n.faults == nil {
		return false
	}
	ls := n.faults.links[mkLinkKey(a, b)]
	return ls != nil && ls.cut
}
