// Package cluster assembles complete simulated deployments — the testbed
// counterpart of the paper's 64-node InfiniBand cluster. A GlusterFS
// deployment wires client stacks (FUSE → [CMCache] → protocol-client) to a
// server stack (protocol-server → [SMCache] → Posix on a RAID array), with
// an optional MCD bank for IMCa.
//
// A deployment is fully self-contained: New builds everything — network,
// disks, caches, selector state — inside the caller's fresh sim.Env with
// no mutable package-level state. Independent deployments may therefore
// run concurrently on the host (the parallel sweep engine relies on
// this); nothing in this package or below it is shared between two
// clusters built by separate New calls.
package cluster

import (
	"fmt"

	"imca/internal/core"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// Options describes a GlusterFS/IMCa deployment.
type Options struct {
	// Transport is the interconnect (default IPoIB, as in the paper).
	Transport fabric.Transport
	// Clients is the number of client nodes.
	Clients int
	// Bricks is the number of GlusterFS server nodes; with more than one,
	// clients run the distribute translator over per-brick protocol
	// clients, spreading the namespace as GlusterFS's default
	// configuration does. Default 1 (the paper's testbed).
	Bricks int
	// MCDs is the number of MemCached daemons; zero disables IMCa (the
	// paper's "NoCache" configuration).
	MCDs int
	// MCDMemBytes is each daemon's memory bound (paper: up to 6 GB).
	MCDMemBytes int64
	// ServerCacheBytes bounds the server's OS page cache.
	ServerCacheBytes int64
	// BlockSize is the IMCa block size; Threaded enables SMCache's
	// helper-thread updates.
	BlockSize int64
	Threaded  bool
	// Selector overrides the MCD key distribution (default CRC32).
	Selector memcache.Selector
	// EjectAfter enables client-side MCD failover on every bank client
	// (CMCaches and SMCaches): after this many consecutive failures a
	// daemon is ejected and requests to it fast-fail until a backoff
	// probe readmits it. Zero (the default) keeps the paper's
	// no-failover client. See memcache.SimClient.SetEjection.
	EjectAfter int
	// Replicas sets the MCD copy count per key on every bank client:
	// 2 writes each block/stat twice and fails reads over to the
	// successor copy when the primary is ejected or suspected. Zero or
	// one (the default) keeps the paper's single-copy bank. See
	// memcache.SimClient.SetReplication.
	Replicas int
	// SuspectAfter enables latency-based gray-failure suspicion on every
	// bank client: a daemon whose smoothed single-key get service time
	// exceeds this is soft-ejected for reads until a backoff probe
	// observes it fast again. Zero (the default) disables suspicion. See
	// memcache.SimClient.SetSuspicion.
	SuspectAfter sim.Duration
}

func (o Options) withDefaults() Options {
	if o.Transport.Name == "" {
		o.Transport = fabric.IPoIB
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.MCDMemBytes == 0 {
		o.MCDMemBytes = 6 << 30
	}
	if o.ServerCacheBytes == 0 {
		o.ServerCacheBytes = 6 << 30
	}
	if o.Bricks <= 0 {
		o.Bricks = 1
	}
	if o.BlockSize == 0 {
		o.BlockSize = core.DefaultBlockSize
	}
	return o
}

// Mount is one client's view of the file system.
type Mount struct {
	FS      gluster.FS
	Node    *fabric.Node
	CMCache *core.CMCache // nil without IMCa
	// Distribute is the mount's namespace-distribution xlator; nil on
	// single-brick deployments, where the client stack needs none.
	Distribute *gluster.Distribute
}

// Cluster is a deployed GlusterFS (optionally IMCa-enabled) system.
type Cluster struct {
	Env  *sim.Env
	Net  *fabric.Network
	Opts Options
	// Posix, Server, and SMCache describe the first brick; Bricks lists
	// all of them when Options.Bricks > 1.
	Posix   *gluster.Posix
	Server  *gluster.Server
	SMCache *core.SMCache // nil without IMCa
	Bricks  []*Brick
	MCDs    []*memcache.SimServer
	Mounts  []Mount
}

// Brick is one GlusterFS server: its storage, translator, and daemon.
type Brick struct {
	Node    *fabric.Node
	Array   *disk.Array
	Posix   *gluster.Posix
	SMCache *core.SMCache // nil without IMCa
	Server  *gluster.Server
}

// New deploys a cluster per opts on a fresh simulation environment.
func New(opts Options) *Cluster {
	env := sim.NewEnv()
	return NewOn(env, fabric.NewNetwork(env, opts.withDefaults().Transport), opts)
}

// NewOn deploys onto an existing environment/network (so multiple systems
// can share one simulation, e.g. GlusterFS next to Lustre).
func NewOn(env *sim.Env, net *fabric.Network, opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{Env: env, Net: net, Opts: opts}

	imcaCfg := core.Config{BlockSize: opts.BlockSize, Threaded: opts.Threaded}
	for i := 0; i < opts.MCDs; i++ {
		node := net.NewNode(fmt.Sprintf("mcd%d", i), 8)
		c.MCDs = append(c.MCDs, memcache.NewSimServer(node, opts.MCDMemBytes))
	}
	// bankClient is a translator's client of the bank, on its node.
	bankClient := func(node *fabric.Node) *memcache.SimClient {
		mc := memcache.NewSimClient(node, c.MCDs)
		if opts.Selector != nil {
			mc.SetSelector(opts.Selector)
		}
		if opts.EjectAfter > 0 {
			mc.SetEjection(opts.EjectAfter)
		}
		if opts.Replicas > 1 {
			mc.SetReplication(opts.Replicas)
		}
		if opts.SuspectAfter > 0 {
			mc.SetSuspicion(opts.SuspectAfter)
		}
		return mc
	}

	for b := 0; b < opts.Bricks; b++ {
		name := "gfs-server"
		if opts.Bricks > 1 {
			name = fmt.Sprintf("gfs-brick%d", b)
		}
		srvNode := net.NewNode(name, 8)
		arr := disk.NewHighPoint(env, disk.HighPointDisks)
		px := gluster.NewPosix(env, gluster.PosixConfig{Dev: arr, CacheBytes: opts.ServerCacheBytes})
		brick := &Brick{Node: srvNode, Array: arr, Posix: px}
		var serverChild gluster.TaskFS = px
		if opts.MCDs > 0 {
			brick.SMCache = core.NewSMCache(env, px, bankClient(srvNode), imcaCfg)
			serverChild = brick.SMCache
		}
		brick.Server = gluster.NewServer(srvNode, serverChild)
		c.Bricks = append(c.Bricks, brick)
	}
	c.Posix = c.Bricks[0].Posix
	c.SMCache = c.Bricks[0].SMCache
	c.Server = c.Bricks[0].Server

	for i := 0; i < opts.Clients; i++ {
		node := net.NewNode(fmt.Sprintf("client%d", i), 8)
		var stack gluster.TaskFS
		var dht *gluster.Distribute
		if opts.Bricks == 1 {
			stack = gluster.NewClient(node, c.Bricks[0].Node)
		} else {
			subs := make([]gluster.TaskFS, opts.Bricks)
			for b, brick := range c.Bricks {
				subs[b] = gluster.NewClient(node, brick.Node)
			}
			dht = gluster.NewDistribute(subs...)
			stack = dht
		}
		var cm *core.CMCache
		if opts.MCDs > 0 {
			cm = core.NewCMCache(stack, bankClient(node), imcaCfg)
			stack = cm
		}
		stack = gluster.NewFuse(node, stack)
		c.Mounts = append(c.Mounts, Mount{FS: stack, Node: node, CMCache: cm, Distribute: dht})
	}
	return c
}

// FSes returns each mount's file system, in client order.
func (c *Cluster) FSes() []gluster.FS {
	out := make([]gluster.FS, len(c.Mounts))
	for i, m := range c.Mounts {
		out[i] = m.FS
	}
	return out
}

// BankStats sums memcached statistics across the MCD bank: every daemon's
// store and every translator's bank client (all mounts' CMCaches and all
// bricks' SMCaches), whose failure counters are client-side observations.
func (c *Cluster) BankStats() memcache.Stats {
	var total memcache.Stats
	for _, s := range c.MCDs {
		total.Add(s.Store().Stats())
	}
	for _, m := range c.Mounts {
		if m.CMCache != nil {
			total.Add(m.CMCache.Bank().Stats())
		}
	}
	for _, b := range c.Bricks {
		if b.SMCache != nil {
			total.Add(b.SMCache.Bank().Stats())
		}
	}
	return total
}
