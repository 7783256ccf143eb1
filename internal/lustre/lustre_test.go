package lustre

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// paperConfig is a deployment of osts data servers with the paper's caches:
// 6 GB per OST, 2 GB per client.
func paperConfig(osts int) Config {
	return Config{OSTs: osts, OSTCacheBytes: 6 << 30, ClientCacheBytes: 2 << 30}
}

func deploy(t *testing.T, osts int) (*sim.Env, *Cluster, []*Client) {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cl := New(env, net, "lustre", paperConfig(osts))
	clients := make([]*Client, 2)
	for i := range clients {
		clients[i] = cl.NewClient(net.NewNode(fmt.Sprintf("lc%d", i), 8))
	}
	return env, cl, clients
}

func TestLustreCreateWriteRead(t *testing.T) {
	env, _, cls := deploy(t, 4)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, err := c.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.Synthetic(7, 0, 3<<20) // crosses stripes on 4 OSTs
		if _, err := c.Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(p, fd, 0, 3<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Error("striped read-back mismatch")
		}
	})
	env.Run()
}

func TestLustreStripingUsesAllOSTs(t *testing.T) {
	env, cl, cls := deploy(t, 4)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/striped")
		c.Write(p, fd, 0, blob.Synthetic(1, 0, 8<<20)) // 8 stripes over 4 OSTs
	})
	env.Run()
	for i, o := range cl.osts {
		if o.store.FileCount() == 0 {
			t.Errorf("OST %d received no object", i)
		}
	}
}

func TestLustreWarmCacheReadIsLocal(t *testing.T) {
	env, _, cls := deploy(t, 1)
	var cold, warm sim.Duration
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/w")
		c.Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		c.DropCaches()

		start := p.Now()
		c.Read(p, fd, 0, 1<<20)
		cold = p.Now().Sub(start)

		start = p.Now()
		c.Read(p, fd, 0, 1<<20)
		warm = p.Now().Sub(start)
	})
	env.Run()
	if warm >= cold/10 {
		t.Errorf("warm read %v not ~free vs cold %v", warm, cold)
	}
	if warm == 0 {
		t.Error("warm read should still pay local VFS/copy CPU time")
	}
}

func TestLustreColdCacheFetchesFromOST(t *testing.T) {
	env, _, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/cold")
		c.Write(p, fd, 0, blob.Synthetic(2, 0, 64<<10))
		c.DropCaches()
		start := p.Now()
		got, err := c.Read(p, fd, 0, 64<<10)
		if err != nil || got.Len() != 64<<10 {
			t.Fatalf("cold read: %d, %v", got.Len(), err)
		}
		if p.Now().Sub(start) < 2*fabric.IPoIB.Latency {
			t.Error("cold read did not visit the network")
		}
	})
	env.Run()
}

func TestLustreCoherencyWriterInvalidatesReader(t *testing.T) {
	env, cl, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		w, r := cls[0], cls[1]
		wfd, _ := w.Create(p, "/shared")
		w.Write(p, wfd, 0, blob.FromString("version-one____"))

		rfd, _ := r.Open(p, "/shared")
		got, _ := r.Read(p, rfd, 0, 15)
		if string(got.Bytes()) != "version-one____" {
			t.Fatalf("reader saw %q", got.Bytes())
		}
		// Writer updates; reader's cache must be revoked.
		w.Write(p, wfd, 0, blob.FromString("version-two____"))
		got, _ = r.Read(p, rfd, 0, 15)
		if string(got.Bytes()) != "version-two____" {
			t.Errorf("reader saw stale %q after write", got.Bytes())
		}
	})
	env.Run()
	if cl.Revocations == 0 {
		t.Error("no lock revocations recorded")
	}
}

func TestLustreStatSeesRemoteWrites(t *testing.T) {
	env, _, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		w, r := cls[0], cls[1]
		wfd, _ := w.Create(p, "/poll")
		st0, _ := r.Stat(p, "/poll")
		p.Sleep(time.Second)
		w.Write(p, wfd, 0, blob.Synthetic(1, 0, 500))
		st1, err := r.Stat(p, "/poll")
		if err != nil {
			t.Fatal(err)
		}
		if st1.Size != 500 || st1.Mtime <= st0.Mtime {
			t.Errorf("consumer stat stale: %+v vs %+v", st1, st0)
		}
	})
	env.Run()
}

func TestLustreMoreOSTsImproveLargeReadBandwidth(t *testing.T) {
	elapsed := func(osts int) sim.Duration {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		cfg := paperConfig(osts)
		cl := New(env, net, "l", cfg)
		c := cl.NewClient(net.NewNode("c", 8))
		var d sim.Duration
		env.Process("t", func(p *sim.Proc) {
			fd, _ := c.Create(p, "/big")
			c.Write(p, fd, 0, blob.Synthetic(1, 0, 32<<20))
			c.DropCaches()
			// Also chill the OST caches so the disks matter.
			for _, o := range cl.osts {
				o.store.Cache().Clear()
			}
			start := p.Now()
			c.Read(p, fd, 0, 32<<20)
			d = p.Now().Sub(start)
		})
		env.Run()
		return d
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= one {
		t.Errorf("4 OSTs (%v) not faster than 1 OST (%v) for a cold 32MB read", four, one)
	}
}

func TestLustreUnlink(t *testing.T) {
	env, _, cls := deploy(t, 2)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/gone")
		c.Write(p, fd, 0, blob.FromString("x"))
		if err := c.Unlink(p, "/gone"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stat(p, "/gone"); err != gluster.ErrNotExist {
			t.Errorf("stat after unlink = %v", err)
		}
		if _, err := c.Open(p, "/gone"); err != gluster.ErrNotExist {
			t.Errorf("open after unlink = %v", err)
		}
	})
	env.Run()
}

func TestLustreMkdirReaddir(t *testing.T) {
	env, _, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		c.Mkdir(p, "/d")
		c.Create(p, "/d/a")
		c.Create(p, "/d/b")
		names, err := c.Readdir(p, "/d")
		if err != nil || len(names) != 2 {
			t.Errorf("readdir = %v, %v", names, err)
		}
	})
	env.Run()
}

func TestLustreClientCacheBounded(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	cfg := paperConfig(1)
	cfg.ClientCacheBytes = 1 << 20 // tiny client cache
	cl := New(env, net, "l", cfg)
	c := cl.NewClient(net.NewNode("c", 8))
	env.Process("t", func(p *sim.Proc) {
		fd, _ := c.Create(p, "/big")
		c.Write(p, fd, 0, blob.Synthetic(1, 0, 8<<20))
		c.DropCaches()
		c.Read(p, fd, 0, 8<<20)
		// Re-read: most pages were evicted, so misses must dominate.
		c.CacheHits, c.CacheMisses = 0, 0
		c.Read(p, fd, 0, 8<<20)
	})
	env.Run()
	if c.cache.used > 1<<20 {
		t.Errorf("client cache used %d > bound", c.cache.used)
	}
	if c.CacheMisses == 0 {
		t.Error("re-read of an 8MB file through a 1MB cache had no misses")
	}
}

func TestLustreTruncate(t *testing.T) {
	env, _, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/t")
		c.Write(p, fd, 0, blob.Synthetic(1, 0, 1000))
		c.Truncate(p, "/t", 100)
		st, _ := c.Stat(p, "/t")
		if st.Size != 100 {
			t.Errorf("size after truncate = %d", st.Size)
		}
		// The front door's range check (gluster.CheckRange), before any
		// CPU charge or RPC.
		at := p.Now()
		if err := c.Truncate(p, "/t", -1); !errors.Is(err, gluster.ErrInvalid) {
			t.Errorf("truncate to -1: err = %v, want gluster.ErrInvalid", err)
		}
		if _, err := c.Write(p, fd, math.MaxInt64, blob.Synthetic(1, 0, 10)); !errors.Is(err, gluster.ErrInvalid) {
			t.Errorf("write ending past MaxInt64: err = %v, want gluster.ErrInvalid", err)
		}
		if _, err := c.Read(p, fd, -5, 10); !errors.Is(err, gluster.ErrInvalid) {
			t.Errorf("read at -5: err = %v, want gluster.ErrInvalid", err)
		}
		if p.Now() != at {
			t.Errorf("refused calls took %v of virtual time", p.Now().Sub(at))
		}
		if st, _ := c.Stat(p, "/t"); st.Size != 100 {
			t.Errorf("size after the refused calls = %d, want 100", st.Size)
		}
	})
	env.Run()
}
