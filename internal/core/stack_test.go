package core

import (
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// TestFullTranslatorStackComposition stacks every client translator the
// repository provides — FUSE cost model, write-behind, read-ahead, and
// CMCache — over the protocol client, against a server running SMCache
// over Posix, and checks data integrity under a mixed workload. This is
// the "maximal GlusterFS configuration" the translator architecture is
// supposed to allow.
func TestFullTranslatorStackComposition(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	// newRig's stack is fuse(cmcache(protocol)); rebuild a taller one on
	// the same deployment: fuse(wb(ra(cmcache(protocol)))).
	node := r.net.Node("client0")
	base := r.cmcache // cmcache(protocol-client), already wired to the rig
	ra := gluster.NewReadAhead(base, 64<<10)
	wb := gluster.NewWriteBehind(ra, 32<<10)
	full := gluster.NewFuse(node, wb, gluster.DefaultFuseConfig)

	ref := &refFile{}
	rng := newRand(2024)
	r.env.Process("stack", func(p *sim.Proc) {
		fd, err := full.Create(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			if rng.next()%2 == 0 {
				off := int64(rng.next() % 40000)
				size := int64(rng.next()%3000) + 1
				payload := blob.Synthetic(rng.next()|1, off, size)
				if _, err := full.Write(p, fd, off, payload); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				ref.write(off, payload.Bytes())
			} else {
				off := int64(rng.next() % 45000)
				size := int64(rng.next()%5000) + 1
				got, err := full.Read(p, fd, off, size)
				if err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				want := ref.read(off, size)
				if got.Len() != int64(len(want)) || !got.Equal(blob.FromBytes(want)) {
					t.Fatalf("op %d read [%d,%d): mismatch", op, off, off+size)
				}
			}
		}
		// Close flushes write-behind and purges; a reopen reads back the
		// full reference content.
		if err := full.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		fd, err = full.Open(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := full.Read(p, fd, 0, int64(len(ref.data)))
		if err != nil || !got.Equal(blob.FromBytes(ref.data)) {
			t.Fatalf("post-reopen readback mismatch: %v", err)
		}
		st, err := full.Stat(p, "/stack/f")
		if err != nil || st.Size != int64(len(ref.data)) {
			t.Fatalf("stat = %+v, %v; want size %d", st, err, len(ref.data))
		}
	})
	r.env.Run()
}

// TestStackedStatStaysCoherent checks the stat path through the same tall
// stack: write-behind must flush before stat so sizes are never stale.
func TestStackedStatStaysCoherent(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	node := r.net.Node("client0")
	wb := gluster.NewWriteBehind(r.cmcache, 1<<20) // large buffer: writes linger
	full := gluster.NewFuse(node, wb, gluster.DefaultFuseConfig)
	r.env.Process("t", func(p *sim.Proc) {
		fd, _ := full.Create(p, "/sc/f")
		full.Write(p, fd, 0, blob.Synthetic(1, 0, 5000))
		st, err := full.Stat(p, "/sc/f")
		if err != nil || st.Size != 5000 {
			t.Fatalf("stat through buffered stack = %+v, %v", st, err)
		}
	})
	r.env.Run()
}

// TestBlockingDeviceUnderTaskStack puts a device that exists only in
// blocking form (disk.SchedDisk) under the brick: Posix holds it through
// disk.Lift, nothing above it is task-ready any more, so the daemon serves
// each request on a process awaiting its handler and SMCache's Threaded
// helpers become processes awaiting theirs — the same *T bodies throughout.
// The client stack is unaffected: its stack ends at the fabric.
func TestBlockingDeviceUnderTaskStack(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		srvNode, cliNode := net.NewNode("server", 8), net.NewNode("client0", 8)
		mcds := []*memcache.SimServer{memcache.NewSimServer(net.NewNode("mcd0", 8), 1<<30)}
		cfg := Config{BlockSize: 2048, Threaded: threaded}

		px := gluster.NewPosix(env, gluster.PosixConfig{
			Dev: disk.NewSched(env, disk.HighPoint2008, disk.Elevator), CacheBytes: 4096}) // tiny page cache: read-backs reach the device
		sm := NewSMCache(env, px, memcache.NewSimClient(srvNode, mcds), cfg)
		if px.TaskReady() || sm.TaskReady() {
			t.Fatal("a stack over a blocking-only device must not report task-ready")
		}
		gluster.NewServer(srvNode, sm, gluster.DefaultServerConfig)
		cm := NewCMCache(gluster.NewClient(cliNode, srvNode), memcache.NewSimClient(cliNode, mcds), cfg)
		top := gluster.NewFuse(cliNode, cm, gluster.DefaultFuseConfig)
		if !top.TaskReady() {
			t.Fatal("the client stack ends at the fabric and stays task-ready")
		}

		payload := blob.Synthetic(9, 0, 6000)
		env.Process("client", func(p *sim.Proc) {
			fd, err := top.Create(p, "/sched/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := top.Write(p, fd, 0, payload); err != nil {
				t.Fatal(err)
			}
			p.Sleep(10 * time.Millisecond) // let Threaded helpers land their pushes
			got, err := top.Read(p, fd, 0, 6000)
			if err != nil || !got.Equal(payload) {
				t.Fatalf("threaded=%v: read back %d bytes, err %v", threaded, got.Len(), err)
			}
			st, err := top.Stat(p, "/sched/f")
			if err != nil || st.Size != 6000 {
				t.Fatalf("threaded=%v: stat %+v, err %v", threaded, st, err)
			}
		})
		env.Run()
		if cm.Stats.ReadHits != 1 || cm.Stats.StatHits != 1 || sm.Stats.BlockPushes == 0 {
			t.Errorf("threaded=%v: bank not fed through the lifted stack: cm %+v, sm %+v", threaded, cm.Stats, sm.Stats)
		}
	}
}
