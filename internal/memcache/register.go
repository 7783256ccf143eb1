package memcache

import "imca/internal/telemetry"

// Register exposes one daemon's memcached-style stats under prefix
// (e.g. "mcd0"). Values are read lazily from the store at sample time.
func (s *SimServer) Register(reg *telemetry.Registry, prefix string) {
	stat := func(pick func(Stats) uint64) func() uint64 {
		return func() uint64 { return pick(s.store.Stats()) }
	}
	reg.Counter(prefix+".gets", stat(func(st Stats) uint64 { return st.CmdGet }))
	reg.Counter(prefix+".hits", stat(func(st Stats) uint64 { return st.GetHits }))
	reg.Counter(prefix+".misses", stat(func(st Stats) uint64 { return st.GetMisses }))
	reg.Counter(prefix+".sets", stat(func(st Stats) uint64 { return st.CmdSet }))
	reg.Counter(prefix+".evictions", stat(func(st Stats) uint64 { return st.Evictions }))
	reg.Gauge(prefix+".items", func() float64 { return float64(s.store.Stats().CurrItems) })
	reg.Gauge(prefix+".stored_bytes", func() float64 { return float64(s.store.Stats().Bytes) })
	reg.Rate(prefix+".hit_rate",
		stat(func(st Stats) uint64 { return st.GetHits }),
		stat(func(st Stats) uint64 { return st.CmdGet }))
}

// Register exposes the client's failure counters under prefix — the ways
// a bank request degrades to the server path instead of answering — and
// the ejection state machine's transitions (zero unless SetEjection is
// enabled).
func (c *SimClient) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".down_replies", func() uint64 { return c.downReplies })
	reg.Counter(prefix+".unreachables", func() uint64 { return c.unreachables })
	reg.Counter(prefix+".ejects", func() uint64 { return c.ejects })
	reg.Counter(prefix+".probes", func() uint64 { return c.probes })
	reg.Counter(prefix+".readmits", func() uint64 { return c.readmits })
	reg.Counter(prefix+".fast_fails", func() uint64 { return c.fastFails })
	reg.Counter(prefix+".failovers", func() uint64 { return c.failovers })
	reg.Counter(prefix+".suspects", func() uint64 { return c.suspects })
	reg.Counter(prefix+".suspect_clears", func() uint64 { return c.suspectClears })
	// Per-bank latency distributions (entry to exit, fast-fails included).
	// Hists are excluded from scalar dumps, so these change no existing
	// output bytes.
	c.getHist = reg.Hist(prefix + ".get_lat")
	c.setHist = reg.Hist(prefix + ".set_lat")
	c.multiHist = reg.Hist(prefix + ".getmulti_lat")
}
