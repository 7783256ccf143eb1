package memcache

import (
	"time"

	"imca/internal/flight"
	"imca/internal/sim"
)

// DefaultProbeBackoff is the wait before the first probe of a server a
// failure detector has taken out of rotation.
const DefaultProbeBackoff = 5 * time.Millisecond

// maxBackoffMult caps the exponential probe backoff at this multiple of
// DefaultProbeBackoff, so a long outage still gets probed at a steady rate.
const maxBackoffMult = 64

// gate is one failure detector's hold on a server. While the server is out,
// the requests the gate covers fail fast without touching the NIC, except
// one let through as a probe each time probeAt passes; each probe that
// fails doubles backoff, the wait before the next, up to maxBackoffMult
// times DefaultProbeBackoff.
type gate struct {
	out     bool
	probeAt sim.Time
	backoff sim.Duration
}

// open reports whether a request may pass at now, counting nothing.
func (g *gate) open(now sim.Time) bool { return !g.out || now >= g.probeAt }

// shut takes the server out at now.
func (g *gate) shut(now sim.Time) {
	*g = gate{out: true, probeAt: now.Add(DefaultProbeBackoff), backoff: DefaultProbeBackoff}
}

// retry puts the next probe off after a failed one.
func (g *gate) retry(now sim.Time) {
	g.backoff = min(2*g.backoff, maxBackoffMult*DefaultProbeBackoff)
	g.probeAt = now.Add(g.backoff)
}

// serverHealth is one server's standing with this client: two detectors,
// each with its own gate. Health is a per-client view (as in real memcache
// clients): each translator's client discovers and forgives failures on
// its own.
type serverHealth struct {
	// fails counts consecutive failed requests (down reply or unreachable
	// link); any success resets it. ejectAfter of them shut eject, which
	// gates every request, until a successful probe opens it.
	fails int
	eject gate

	// Latency suspicion: gray failures answer correctly but slowly, so
	// consecutive-failure ejection never triggers. The EWMA of successful
	// single-key get service times detects them: over suspectAfter it shuts
	// suspect, which gates only reads — a slow cache must keep receiving
	// sets and deletes or it serves stale data — until a probe read comes
	// back at healthy speed.
	suspect gate
	ewma    float64 // smoothed service time, virtual nanoseconds
	samples int
}

// suspectAlpha is the EWMA smoothing factor (1/8, the TCP RTT estimator's
// gain); suspectMinSamples is how many successes must be seen before the
// EWMA is trusted enough to suspect anyone.
const (
	suspectAlpha      = 0.125
	suspectMinSamples = 8
)

// SetEjection enables client-side server health tracking: after k
// consecutive failures (down replies, unreachable links) a server is
// ejected and requests to it fail fast — no request serializes onto the
// NIC — until a probe readmits it. While ejected, one real request is let
// through each time the backoff expires; a success readmits the server
// immediately, a failure doubles the backoff (capped). k <= 0 disables
// tracking (the default): every request goes to the wire exactly as
// before, preserving the paper's no-failover client.
func (c *SimClient) SetEjection(k int) {
	c.ejectAfter = max(k, 0)
	c.resetHealth()
}

// SetSuspicion enables latency-based gray-failure detection: when the
// EWMA of a server's successful single-key get service times crosses
// threshold, the server is suspected and reads to it fast-fail (failing
// over to the replica when one is configured) until a probe — one real
// read per backoff window, paced as ejection's probes are — comes back at
// healthy speed. Writes are never blocked by suspicion: a slow-but-alive
// cache must keep seeing sets and deletes or it would serve stale data
// once readmitted. threshold <= 0 disables (the default).
func (c *SimClient) SetSuspicion(threshold sim.Duration) {
	c.suspectAfter = max(threshold, 0)
	c.resetHealth()
}

// resetHealth starts every server's standing afresh, or drops it when
// neither detector is on.
func (c *SimClient) resetHealth() {
	c.health = nil
	if c.ejectAfter > 0 || c.suspectAfter > 0 {
		c.health = make([]serverHealth, len(c.servers))
	}
}

// Ejected reports whether server i is currently out of rotation.
func (c *SimClient) Ejected(i int) bool { return c.health != nil && c.health[i].eject.out }

// Suspected reports whether server i is currently under latency
// suspicion.
func (c *SimClient) Suspected(i int) bool { return c.health != nil && c.health[i].suspect.out }

// pass decides whether a request to server i may go through g: yes when
// the server is in, yes for a due probe (counted as a probe), no otherwise
// (counted as a fast-fail; the caller reads it as an instant miss).
func (c *SimClient) pass(a sim.Actor, i int, g *gate) bool {
	if !g.out {
		return true
	}
	if a.Now() >= g.probeAt {
		c.stats.Probes++
		c.fr.Append(a.Now(), flight.KindProbe, c.node.Name(), c.servers[i].node.Name(), int64(g.backoff))
		return true
	}
	c.stats.FastFails++
	return false
}

// admit decides whether a request to server i may go to the wire: through
// the ejection gate.
func (c *SimClient) admit(a sim.Actor, i int) bool {
	return c.health == nil || c.pass(a, i, &c.health[i].eject)
}

// admitRead decides whether a read to server i may go to the wire: through
// the ejection gate, then the suspicion gate. A suspected server's probe
// read's own service time decides whether the suspicion clears (see
// observeLatency).
func (c *SimClient) admitRead(a sim.Actor, i int) bool {
	return c.health == nil || c.pass(a, i, &c.health[i].eject) && c.pass(a, i, &c.health[i].suspect)
}

// readRoutable is admitRead without side effects: would a read to server i
// currently reach the wire? Scatter-time replica routing (GetMulti) uses
// it so routing decisions never consume probe slots or count fast-fails
// for keys that end up on the other copy.
func (c *SimClient) readRoutable(a sim.Actor, i int) bool {
	if c.health == nil {
		return true
	}
	h := &c.health[i]
	return h.eject.open(a.Now()) && h.suspect.open(a.Now())
}

// observeLatency feeds one successful single-key get's service time into
// server i's suspicion EWMA. Batched gets are excluded: their service
// time scales with the batch, which would poison a per-op estimator.
func (c *SimClient) observeLatency(a sim.Actor, i int, elapsed sim.Duration) {
	if c.suspectAfter == 0 {
		return
	}
	h := &c.health[i]
	s := float64(elapsed)
	if h.samples == 0 {
		h.ewma = s
	} else {
		h.ewma += suspectAlpha * (s - h.ewma)
	}
	h.samples++
	switch {
	case h.suspect.out && elapsed <= c.suspectAfter:
		// The probe came back at healthy speed: clear the suspicion and
		// restart the estimator from the healthy sample, so the gray-phase
		// residue cannot immediately re-suspect.
		h.suspect, h.ewma, h.samples = gate{}, s, 1
		c.stats.SuspectClears++
		c.fr.Append(a.Now(), flight.KindSuspectClear, c.node.Name(), c.servers[i].node.Name(), int64(elapsed))
	case h.suspect.out:
		h.suspect.retry(a.Now()) // still slow
	case h.samples >= suspectMinSamples && sim.Duration(h.ewma) > c.suspectAfter:
		h.suspect.shut(a.Now())
		c.stats.Suspects++
		c.fr.Append(a.Now(), flight.KindSuspect, c.node.Name(), c.servers[i].node.Name(), int64(h.ewma))
	}
}

// observe records the outcome of a wire request to server i, ejecting,
// backing off, or readmitting as the state machine dictates.
func (c *SimClient) observe(a sim.Actor, i int, ok bool) {
	if c.ejectAfter == 0 {
		return
	}
	h := &c.health[i]
	if ok {
		if h.eject.out {
			c.stats.Readmits++
			c.fr.Append(a.Now(), flight.KindReadmit, c.node.Name(), c.servers[i].node.Name(), int64(h.fails))
		}
		// Suspicion has its own lifecycle (observeLatency) and must survive
		// a fast success.
		h.fails, h.eject = 0, gate{}
		return
	}
	h.fails++
	switch {
	case h.eject.out:
		h.eject.retry(a.Now()) // a failed probe
	case h.fails >= c.ejectAfter:
		h.eject.shut(a.Now())
		c.stats.Ejects++
		c.fr.Append(a.Now(), flight.KindEject, c.node.Name(), c.servers[i].node.Name(), int64(h.fails))
	}
}
