package cluster

import (
	"fmt"

	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/telemetry"
)

// Instrument registers every layer of the deployment on reg with stable,
// topology-derived prefixes: client<i>.* for mounts, brick<b>.* for
// servers (NIC, daemon, SMCache, posix, pagecache, RAID), mcd<m>.* for the
// bank daemons, and bank.* aggregates across the whole MCD bank.
// Registration order follows construction order, so two identical
// deployments produce identical dumps.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	for i, m := range c.Mounts {
		p := fmt.Sprintf("client%d", i)
		m.Node.Register(reg, p+".nic")
		if f, ok := m.FS.(*gluster.Fuse); ok {
			f.Register(reg, p+".fuse")
		}
		if m.CMCache != nil {
			m.CMCache.Register(reg, p+".cmcache")
		}
		if m.Distribute != nil {
			m.Distribute.Register(reg, p+".dht")
		}
	}
	for b, brick := range c.Bricks {
		p := fmt.Sprintf("brick%d", b)
		brick.Node.Register(reg, p+".nic")
		brick.Server.Register(reg, p+".server")
		if brick.SMCache != nil {
			brick.SMCache.Register(reg, p+".smcache")
		}
		brick.Posix.Register(reg, p+".posix")
		brick.Posix.Cache().Register(reg, p+".pagecache")
		brick.Array.Register(reg, p+".raid")
	}
	for m, s := range c.MCDs {
		p := fmt.Sprintf("mcd%d", m)
		s.Node().Register(reg, p+".nic")
		s.Register(reg, p)
	}
	if len(c.MCDs) > 0 {
		bank := func(pick func(st memcache.Stats) uint64) func() uint64 {
			return func() uint64 { return pick(c.BankStats()) }
		}
		reg.Counter("bank.gets", bank(func(st memcache.Stats) uint64 { return st.CmdGet }))
		reg.Counter("bank.hits", bank(func(st memcache.Stats) uint64 { return st.GetHits }))
		reg.Counter("bank.misses", bank(func(st memcache.Stats) uint64 { return st.GetMisses }))
		reg.Counter("bank.evictions", bank(func(st memcache.Stats) uint64 { return st.Evictions }))
		for _, ctr := range memcache.ClientCounters {
			field := ctr.Field
			reg.Counter("bank."+ctr.Name, bank(func(st memcache.Stats) uint64 { return *field(&st) }))
		}
		reg.Gauge("bank.stored_bytes", func() float64 { return float64(c.BankStats().Bytes) })
		reg.Rate("bank.hit_rate",
			bank(func(st memcache.Stats) uint64 { return st.GetHits }),
			bank(func(st memcache.Stats) uint64 { return st.CmdGet }))
	}
}

// SetFlight attaches one flight recorder to every cache layer that emits
// post-mortem records: each mount's CMCache (layer forwards plus its bank
// client's ejection state machine) and each brick's SMCache bank client.
// Call it before the workload runs; a nil recorder detaches. Flight
// recording is pure memory writes and never perturbs the simulation.
func (c *Cluster) SetFlight(rec *flight.Recorder) {
	for i, m := range c.Mounts {
		if m.CMCache != nil {
			m.CMCache.SetFlight(rec, fmt.Sprintf("client%d.cmcache", i))
		}
	}
	for _, b := range c.Bricks {
		if b.SMCache != nil {
			b.SMCache.Bank().SetFlight(rec)
		}
	}
}
