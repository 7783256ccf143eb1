package gluster

import (
	"strconv"

	"imca/internal/telemetry"
)

// Register exposes the storage xlator's disk traffic under prefix; its
// buffer cache registers separately (see cluster wiring) so the pagecache
// instruments carry their own prefix.
func (px *Posix) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".disk_reads", func() uint64 { return px.DiskReads })
	reg.Counter(prefix+".disk_writes", func() uint64 { return px.DiskWrites })
}

// Register exposes the daemon's per-op counters and io-thread pressure
// under prefix.
func (s *Server) Register(reg *telemetry.Registry, prefix string) {
	for _, op := range verbNames { // a fixed order, whatever the map's
		op := op
		reg.Counter(prefix+".ops."+op, func() uint64 { return s.Ops[op] })
	}
	reg.Gauge(prefix+".threads_busy", func() float64 { return float64(s.threads.InUse()) })
	reg.Gauge(prefix+".threads_queued", func() float64 { return float64(s.threads.QueueLen()) })
	reg.Gauge(prefix+".threads_util", func() float64 { return s.threads.Utilization() })
}

// Register exposes the distribute xlator's routing counters under prefix:
// how path operations hashed across subvolumes, how descriptor operations
// followed their issuing brick, and how many namespace operations fanned to
// every subvolume. Subvolume counters are indexed, not named, so
// registration stays deterministic for any brick count.
func (d *Distribute) Register(reg *telemetry.Registry, prefix string) {
	for i := range d.pathOps {
		i := i
		reg.Counter(prefix+".path_ops."+strconv.Itoa(i),
			func() uint64 { return d.pathOps[i] })
	}
	reg.Counter(prefix+".fd_ops", func() uint64 { return d.fdOps })
	reg.Counter(prefix+".fan_ops", func() uint64 { return d.fanOps })
	reg.Counter(prefix+".bad_fds", func() uint64 { return d.badFDs })
	reg.Gauge(prefix+".open_fds", func() float64 { return float64(len(d.fdRoute)) })
}

// Register exposes the FUSE boundary's client-visible latency
// distributions under prefix (e.g. "client0.fuse") — the end-to-end
// read/write/stat times the paper's figures plot, measured where the
// application would measure them.
func (f *Fuse) Register(reg *telemetry.Registry, prefix string) {
	f.hists[verbRead] = reg.Hist(prefix + ".read_lat")
	f.hists[verbWrite] = reg.Hist(prefix + ".write_lat")
	f.hists[verbStat] = reg.Hist(prefix + ".stat_lat")
}
