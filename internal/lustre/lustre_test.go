package lustre

import (
	"errors"
	"fmt"
	"math"
	"strings"
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
		// A truncate revokes the reader's pages too: shrunk to 4 bytes and
		// extended back, the file reads zeros past byte 4.
		w.Truncate(p, "/shared", 4)
		w.Truncate(p, "/shared", 15)
		got, _ = r.Read(p, rfd, 0, 15)
		if want := "vers" + strings.Repeat("\x00", 11); string(got.Bytes()) != want {
			t.Errorf("reader saw %q after the truncates, want %q", got.Bytes(), want)
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
		c.cache.Hits, c.cache.Misses = 0, 0
		// A read longer than the cache still returns every byte.
		if got, _ := c.Read(p, fd, 0, 8<<20); !got.Equal(blob.Synthetic(1, 0, 8<<20)) {
			t.Errorf("an 8MB read through a 1MB cache returned %d bytes, not the file", got.Len())
		}
	})
	env.Run()
	if c.cache.Used() > 1<<20 {
		t.Errorf("client cache used %d > bound", c.cache.Used())
	}
	// The contents go with their pages: no more, no fewer than resident.
	if len(c.pages) != c.cache.Len() {
		t.Errorf("client holds the contents of %d pages, its cache %d", len(c.pages), c.cache.Len())
	}
	if c.cache.Misses == 0 {
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

// A write whose revoke overtakes a reader's fetch leaves the reader
// nothing cached from it: B's 4 MB read is still fetching when A rewrites
// the first page, and B's next read, after both completed, sees the write.
func TestLustreRevokeDuringFetchCachesNothing(t *testing.T) {
	env, _, cls := deploy(t, 1)
	a, b := cls[0], cls[1]
	env.Process("t", func(p *sim.Proc) {
		afd, _ := a.Create(p, "/f")
		a.Write(p, afd, 0, blob.Synthetic(1, 0, 4<<20))
		bfd, _ := b.Open(p, "/f")
		var readEnd sim.Time
		env.Process("reader", func(q *sim.Proc) {
			b.Read(q, bfd, 0, 4<<20)
			readEnd = q.Now()
		})
		p.Sleep(3 * time.Millisecond) // past the read's CPU charge and stat
		a.Write(p, afd, 0, blob.Synthetic(2, 0, 4096))
		if readEnd != 0 {
			t.Fatal("the read finished before the write; nothing overtook its fetch")
		}
		p.Sleep(time.Second) // the overtaken read completes
		got, _ := b.Read(p, bfd, 0, 4096)
		if !got.Equal(blob.Synthetic(2, 0, 4096)) {
			t.Error("reader served the bytes its overtaken fetch returned")
		}
	})
	env.Run()
}

// A write that lands past the end of a cached page short at EOF patches
// the page with a hole between the two: the page holds 10 bytes, the write
// starts at 100, and bytes [10, 100) read as zeros. So do the bytes past
// the page's end when a write on a later page extends the file.
func TestLustreWritePastShortCachedPage(t *testing.T) {
	env, _, cls := deploy(t, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/short")
		c.Write(p, fd, 0, blob.FromString("0123456789"))
		c.Read(p, fd, 0, 10) // caches page 0, 10 bytes long
		if _, err := c.Write(p, fd, 100, blob.FromString("abc")); err != nil {
			t.Fatal(err)
		}
		got, _ := c.Read(p, fd, 0, 103)
		want := "0123456789" + strings.Repeat("\x00", 90) + "abc"
		if string(got.Bytes()) != want {
			t.Errorf("read %q, want %q", got.Bytes(), want)
		}
		// A write on the next page leaves page 0 short and cached; the
		// rest of page 0 reads as zeros.
		c.Write(p, fd, 5000, blob.FromString("xyz"))
		got, _ = c.Read(p, fd, 0, 5003)
		want += strings.Repeat("\x00", 5000-103) + "xyz"
		if string(got.Bytes()) != want {
			t.Errorf("read across the short page: %d bytes, want %d", got.Len(), len(want))
		}
	})
	env.Run()
}

// An empty write changes nothing: a file written nothing at offset 100
// keeps its size, seen from the writer's mount and from another.
func TestLustreEmptyWriteKeepsSize(t *testing.T) {
	env, _, cls := deploy(t, 2)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/empty")
		for _, size := range []int64{0, 10} {
			if size > 0 {
				c.Write(p, fd, 0, blob.Synthetic(3, 0, size))
			}
			if n, err := c.Write(p, fd, 100, blob.Blob{}); n != 0 || err != nil {
				t.Fatalf("empty write at 100: %d, %v", n, err)
			}
			for i, cl := range cls {
				if st, err := cl.Stat(p, "/empty"); err != nil || st.Size != size {
					t.Errorf("client %d: after an empty write at 100 the %d-byte file has size %v (%v)", i, size, st, err)
				}
			}
		}
	})
	env.Run()
}

// Truncate and unlink leave no old bytes behind on the OSTs: a write past
// a hole in the truncated or recreated file reads back zeros before it,
// from the writer's mount and from a cold one.
func TestLustreNoOldBytesAfterTruncateOrUnlink(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(p *sim.Proc, c *Client, fd gluster.FD) gluster.FD
	}{
		{"truncate", func(p *sim.Proc, c *Client, fd gluster.FD) gluster.FD {
			c.Truncate(p, "/f", 0)
			return fd
		}},
		{"unlink", func(p *sim.Proc, c *Client, fd gluster.FD) gluster.FD {
			c.Unlink(p, "/f")
			fd, _ = c.Create(p, "/f")
			return fd
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, _, cls := deploy(t, 2)
			env.Process("t", func(p *sim.Proc) {
				c := cls[0]
				fd, _ := c.Create(p, "/f")
				c.Write(p, fd, 0, blob.FromString("version-one____"))
				fd = tc.remove(p, c, fd)
				c.Write(p, fd, 14, blob.FromString("x"))
				want := strings.Repeat("\x00", 14) + "x"
				for _, r := range cls {
					rfd, _ := r.Open(p, "/f")
					if got, _ := r.Read(p, rfd, 0, 15); string(got.Bytes()) != want {
						t.Errorf("client %d read %q, want %q", r.id, got.Bytes(), want)
					}
				}
			})
			env.Run()
		})
	}
}

// A truncate cuts the object on every OST at its share of the new size:
// shrinking a 5-stripe file on 3 OSTs to 1.5 stripes (OST 0 keeps a
// stripe, OST 1 half of one, OST 2 none) and extending it back leaves the
// first 1.5 stripes and zeros after them.
func TestLustreTruncateCutsEveryStripe(t *testing.T) {
	env, _, cls := deploy(t, 3)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, _ := c.Create(p, "/striped")
		c.Write(p, fd, 0, blob.Synthetic(1, 0, 5*StripeSize))
		c.Truncate(p, "/striped", 3*StripeSize/2)
		c.Truncate(p, "/striped", 5*StripeSize)
		got, _ := c.Read(p, fd, 0, 5*StripeSize)
		want := blob.Concat(blob.Synthetic(1, 0, 3*StripeSize/2), blob.Zeros(7*StripeSize/2))
		if !got.Equal(want) {
			t.Error("read after shrinking and re-extending is not the kept stripes then zeros")
		}
	})
	env.Run()
}
