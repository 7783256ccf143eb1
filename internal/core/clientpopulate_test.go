package core

import (
	"fmt"
	"testing"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/lustre"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// lustreIMCaRig: CMCache in client-populate mode stacked over Lustre
// clients — the paper's future-work integration, with no server-side
// translator at all.
type lustreIMCaRig struct {
	env      *sim.Env
	lus      *lustre.Cluster
	mcds     []*memcache.SimServer
	mounts   []gluster.FS
	caches   []*CMCache
	lclients []*lustre.Client
}

func newLustreIMCaRig(t *testing.T, clients, mcds int) *lustreIMCaRig {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	lus := lustre.New(env, net, "lus", lustre.Config{OSTs: 1, OSTCacheBytes: 6 << 30, ClientCacheBytes: 2 << 30})
	r := &lustreIMCaRig{env: env, lus: lus}
	for i := 0; i < mcds; i++ {
		r.mcds = append(r.mcds, memcache.NewSimServer(net.NewNode(fmt.Sprintf("mcd%d", i), 8), 256<<20))
	}
	cfg := Config{BlockSize: 2048, ClientPopulate: true}
	for i := 0; i < clients; i++ {
		node := net.NewNode(fmt.Sprintf("lc%d", i), 8)
		lc := lus.NewClient(node)
		cm := NewCMCache(lc, memcache.NewSimClient(node, r.mcds), cfg)
		r.lclients = append(r.lclients, lc)
		r.caches = append(r.caches, cm)
		r.mounts = append(r.mounts, cm)
	}
	return r
}

func TestClientPopulateLustreReadMissFillsBank(t *testing.T) {
	r := newLustreIMCaRig(t, 1, 1)
	r.env.Process("t", func(p *sim.Proc) {
		fs := r.mounts[0]
		fd, err := fs.Create(p, "/lx/file")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.Synthetic(5, 0, 16<<10)
		fs.Write(p, fd, 0, payload)
		// The write pushed blocks; flush to force a miss path too.
		r.mcds[0].Store().FlushAll()
		got, err := fs.Read(p, fd, 0, 16<<10) // miss -> lustre -> push
		if err != nil || !got.Equal(payload) {
			t.Fatalf("miss read wrong: %v", err)
		}
		got2, err := fs.Read(p, fd, 0, 16<<10) // now a bank hit
		if err != nil || !got2.Equal(payload) {
			t.Fatalf("hit read wrong: %v", err)
		}
	})
	r.env.Run()
	cm := r.caches[0]
	if cm.Stats.ReadMisses != 1 || cm.Stats.ReadHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", cm.Stats.ReadHits, cm.Stats.ReadMisses)
	}
}

func TestClientPopulateSharedReadersAvoidOSTs(t *testing.T) {
	r := newLustreIMCaRig(t, 4, 2)
	r.env.Process("t", func(p *sim.Proc) {
		w := r.mounts[0]
		fd, _ := w.Create(p, "/shared/data")
		w.Write(p, fd, 0, blob.Synthetic(9, 0, 64<<10))

		for ci := 1; ci < 4; ci++ {
			rfd, err := r.mounts[ci].Open(p, "/shared/data")
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.mounts[ci].Read(p, rfd, 0, 64<<10)
			if err != nil || !got.Equal(blob.Synthetic(9, 0, 64<<10)) {
				t.Fatalf("reader %d wrong data: %v", ci, err)
			}
		}
	})
	r.env.Run()
	for ci := 1; ci < 4; ci++ {
		if r.caches[ci].Stats.ReadMisses != 0 {
			t.Errorf("reader %d missed the bank %d times; writer's push should cover it",
				ci, r.caches[ci].Stats.ReadMisses)
		}
	}
}

func TestClientPopulateStatFromBank(t *testing.T) {
	r := newLustreIMCaRig(t, 2, 1)
	r.env.Process("t", func(p *sim.Proc) {
		w := r.mounts[0]
		fd, _ := w.Create(p, "/s/f")
		w.Write(p, fd, 0, blob.Synthetic(1, 0, 5000))
		st, err := r.mounts[1].Stat(p, "/s/f")
		if err != nil || st.Size != 5000 {
			t.Fatalf("stat via bank = %+v, %v", st, err)
		}
	})
	r.env.Run()
	if r.caches[1].Stats.StatHits != 1 {
		t.Errorf("second client's stat did not hit the bank: %+v", r.caches[1].Stats)
	}
}

func TestClientPopulateUnalignedWriteReadBack(t *testing.T) {
	r := newLustreIMCaRig(t, 1, 1)
	r.env.Process("t", func(p *sim.Proc) {
		fs := r.mounts[0]
		fd, _ := fs.Create(p, "/u/f")
		fs.Write(p, fd, 0, blob.Synthetic(3, 0, 10000))
		// Unaligned overwrite: push must re-read the covering span so
		// the bank's blocks stay whole.
		fs.Write(p, fd, 1000, blob.FromString("XYZ"))
		got, err := fs.Read(p, fd, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		b := got.Bytes()
		if string(b[1000:1003]) != "XYZ" {
			t.Errorf("overwrite lost: %q", b[1000:1003])
		}
		if b[999] != blob.Synthetic(3, 0, 10000).At(999) || b[1003] != blob.Synthetic(3, 0, 10000).At(1003) {
			t.Error("bytes adjacent to the overwrite corrupted")
		}
	})
	r.env.Run()
}

func TestClientPopulateOffByDefault(t *testing.T) {
	// Plain CMCache (no SMCache, no ClientPopulate) must never populate
	// the bank itself.
	r := newLustreIMCaRig(t, 1, 1)
	// Rebuild cache without populate.
	r.caches[0] = NewCMCache(r.lclients[0], memcache.NewSimClient(r.lclients[0].Node(), r.mcds), Config{BlockSize: 2048})
	fs := gluster.FS(r.caches[0])
	r.env.Process("t", func(p *sim.Proc) {
		fd, _ := fs.Create(p, "/plain/f")
		fs.Write(p, fd, 0, blob.Synthetic(1, 0, 4096))
		fs.Read(p, fd, 0, 4096)
		fs.Read(p, fd, 0, 4096)
	})
	r.env.Run()
	if got := r.mcds[0].Store().Len(); got != 0 {
		t.Errorf("bank has %d items; nothing should populate it", got)
	}
	if r.caches[0].Stats.ReadMisses != 2 {
		t.Errorf("both reads should miss, got %d misses", r.caches[0].Stats.ReadMisses)
	}
}
