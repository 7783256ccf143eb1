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

// ClientCounters are a bank client's failure counters — the ways a bank
// request degrades to the server path instead of answering, and the
// ejection and suspicion state machines' transitions — by telemetry name
// and Stats field, in the order every registration lists them and
// Stats.Add sums them.
var ClientCounters = [...]struct {
	Name  string
	Field func(*Stats) *uint64
}{
	{"down_replies", func(st *Stats) *uint64 { return &st.DownReplies }},
	{"unreachables", func(st *Stats) *uint64 { return &st.Unreachables }},
	{"ejects", func(st *Stats) *uint64 { return &st.Ejects }},
	{"probes", func(st *Stats) *uint64 { return &st.Probes }},
	{"readmits", func(st *Stats) *uint64 { return &st.Readmits }},
	{"fast_fails", func(st *Stats) *uint64 { return &st.FastFails }},
	{"failovers", func(st *Stats) *uint64 { return &st.Failovers }},
	{"suspects", func(st *Stats) *uint64 { return &st.Suspects }},
	{"suspect_clears", func(st *Stats) *uint64 { return &st.SuspectClears }},
}

// Register exposes the client's failure counters (ClientCounters) under
// prefix.
func (c *SimClient) Register(reg *telemetry.Registry, prefix string) {
	for _, ctr := range ClientCounters {
		field := ctr.Field
		reg.Counter(prefix+"."+ctr.Name, func() uint64 { return *field(&c.stats) })
	}
	// Per-bank latency distributions (entry to exit, fast-fails included).
	// Hists are excluded from scalar dumps, so these change no existing
	// output bytes.
	c.getHist = reg.Hist(prefix + ".get_lat")
	c.setHist = reg.Hist(prefix + ".set_lat")
	c.multiHist = reg.Hist(prefix + ".getmulti_lat")
}
