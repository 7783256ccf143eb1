package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// rig is a complete single-client IMCa deployment: client (fuse → cmcache
// → protocol-client) → server (protocol-server → smcache → posix) plus an
// MCD bank.
type rig struct {
	env     *sim.Env
	net     *fabric.Network
	posix   *gluster.Posix
	smcache *SMCache
	cmcache *CMCache
	client  gluster.TaskFS // full stack with fuse on top
	mcds    []*memcache.SimServer
}

func newRig(t *testing.T, nMCD int, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client0", 8)

	mcds := make([]*memcache.SimServer, nMCD)
	for i := range mcds {
		mcds[i] = memcache.NewSimServer(net.NewNode(fmt.Sprintf("mcd%d", i), 8), 6<<30)
	}

	dev := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
	px := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: 6 << 30})
	sm := NewSMCache(env, px, memcache.NewSimClient(srvNode, mcds), cfg)
	gluster.NewServer(srvNode, sm)

	cm := NewCMCache(gluster.NewClient(cliNode, srvNode), memcache.NewSimClient(cliNode, mcds), cfg)
	top := gluster.NewFuse(cliNode, cm)
	return &rig{env: env, net: net, posix: px, smcache: sm, cmcache: cm, client: top, mcds: mcds}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.env.Process("client", fn)
	r.env.Run()
}

func TestIMCaWriteThenReadHitsCache(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, err := r.client.Create(p, "/bench/f")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.Synthetic(3, 0, 8192)
		if _, err := r.client.Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		got, err := r.client.Read(p, fd, 0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Error("read data mismatch")
		}
	})
	if r.cmcache.Stats.ReadHits != 1 || r.cmcache.Stats.ReadMisses != 0 {
		t.Errorf("read hits/misses = %d/%d, want 1/0 (write pushed blocks)",
			r.cmcache.Stats.ReadHits, r.cmcache.Stats.ReadMisses)
	}
	if r.smcache.Stats.BlockPushes == 0 || r.smcache.Stats.ReadBacks != 1 {
		t.Errorf("smcache pushes=%d readbacks=%d", r.smcache.Stats.BlockPushes, r.smcache.Stats.ReadBacks)
	}
}

func TestIMCaColdReadMissesThenHits(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		// Populate the file, then flush the MCD bank to simulate cold
		// cache (without reopening, which would purge anyway).
		fd, _ := r.client.Create(p, "/f")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 4096))
		for _, m := range r.mcds {
			m.Store().FlushAll()
		}
		got, err := r.client.Read(p, fd, 0, 4096) // miss -> server
		if err != nil || got.Len() != 4096 {
			t.Fatalf("cold read: %d bytes, %v", got.Len(), err)
		}
		got2, err := r.client.Read(p, fd, 0, 4096) // server pushed -> hit
		if err != nil || !got2.Equal(got) {
			t.Fatalf("warm read mismatch: %v", err)
		}
	})
	if r.cmcache.Stats.ReadMisses != 1 || r.cmcache.Stats.ReadHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			r.cmcache.Stats.ReadHits, r.cmcache.Stats.ReadMisses)
	}
}

func TestIMCaUnalignedReadAssembledFromBlocks(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 256})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/u")
		payload := blob.Synthetic(9, 0, 4096)
		r.client.Write(p, fd, 0, payload)
		// Read a range crossing several blocks at odd offsets.
		got, err := r.client.Read(p, fd, 123, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload.Slice(123, 1123)) {
			t.Error("unaligned read assembled incorrectly")
		}
	})
	if r.cmcache.Stats.ReadHits != 1 {
		t.Errorf("unaligned read did not hit: %+v", r.cmcache.Stats)
	}
}

func TestIMCaReadTailShortBlock(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/tail")
		payload := blob.Synthetic(4, 0, 3000) // 1.46 blocks
		r.client.Write(p, fd, 0, payload)
		got, err := r.client.Read(p, fd, 0, 5000) // past EOF
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3000 || !got.Equal(payload) {
			t.Errorf("tail read = %d bytes, want 3000", got.Len())
		}
	})
}

func TestIMCaStatServedFromCache(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: DefaultBlockSize})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/s")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 1234))
		st, err := r.client.Stat(p, "/s")
		if err != nil || st.Size != 1234 {
			t.Fatalf("stat = %+v, %v", st, err)
		}
	})
	// The write pushed a fresh stat; the client stat must hit.
	if r.cmcache.Stats.StatHits != 1 || r.cmcache.Stats.StatMisses != 0 {
		t.Errorf("stat hits/misses = %d/%d, want 1/0",
			r.cmcache.Stats.StatHits, r.cmcache.Stats.StatMisses)
	}
}

func TestIMCaStatMissFallsBackAndPopulates(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: DefaultBlockSize})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/pop")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 10))
		for _, m := range r.mcds {
			m.Store().FlushAll()
		}
		if _, err := r.client.Stat(p, "/pop"); err != nil { // miss
			t.Fatal(err)
		}
		if _, err := r.client.Stat(p, "/pop"); err != nil { // hit
			t.Fatal(err)
		}
	})
	if r.cmcache.Stats.StatMisses != 1 || r.cmcache.Stats.StatHits != 1 {
		t.Errorf("stat hits/misses = %d/%d, want 1/1",
			r.cmcache.Stats.StatHits, r.cmcache.Stats.StatMisses)
	}
}

func TestIMCaStatReflectsWriteUpdates(t *testing.T) {
	// Producer-consumer pattern: after a write, a consumer's stat must
	// see the new size/mtime through the cache.
	r := newRig(t, 1, Config{BlockSize: DefaultBlockSize})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/feed")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 100))
		st1, _ := r.client.Stat(p, "/feed")
		p.Sleep(time.Second)
		r.client.Write(p, fd, 100, blob.Synthetic(1, 100, 200))
		st2, _ := r.client.Stat(p, "/feed")
		if st2.Size != 300 {
			t.Errorf("stat size = %d, want 300", st2.Size)
		}
		if st2.Mtime <= st1.Mtime {
			t.Error("mtime did not advance through the cache")
		}
	})
}

func TestIMCaOpenPurgesStaleBlocks(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/purge")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 4096))
		bank := r.mcds[0].Store()
		if bank.Len() == 0 {
			t.Fatal("write did not populate the bank")
		}
		// A new open purges the file's entries (fresh stat is re-pushed).
		if _, err := r.client.Open(p, "/purge"); err != nil {
			t.Fatal(err)
		}
		if _, err := bank.Get(blockKey("/purge", 0)); err == nil {
			t.Error("data block survived open purge")
		}
	})
}

func TestIMCaClosePurges(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/c")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 2048))
		r.client.Close(p, fd)
		if _, err := r.mcds[0].Store().Get(blockKey("/c", 0)); err == nil {
			t.Error("data block survived close purge")
		}
	})
}

func TestIMCaDeletePurgesCache(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/del")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 8192))
		if err := r.client.Unlink(p, "/del"); err != nil {
			t.Fatal(err)
		}
		// No false positives: stat and data must be gone everywhere.
		for i, m := range r.mcds {
			if _, err := m.Store().Get(statKey("/del")); err == nil {
				t.Errorf("mcd%d still has stat after delete", i)
			}
			for bo := int64(0); bo < 8192; bo += 2048 {
				if _, err := m.Store().Get(blockKey("/del", bo)); err == nil {
					t.Errorf("mcd%d still has block %d after delete", i, bo)
				}
			}
		}
	})
}

func TestIMCaWriteLatencyThreadedVsInline(t *testing.T) {
	// The paper's Fig 6(c): inline MCD updates put a read-back on the
	// write critical path; the threaded mode removes it.
	measure := func(threaded bool) sim.Duration {
		r := newRig(t, 1, Config{BlockSize: 2048, Threaded: threaded})
		var total sim.Duration
		r.run(t, func(p *sim.Proc) {
			fd, _ := r.client.Create(p, "/w")
			start := p.Now()
			for i := int64(0); i < 64; i++ {
				r.client.Write(p, fd, i*2048, blob.Synthetic(2, i*2048, 2048))
			}
			total = p.Now().Sub(start)
		})
		return total
	}
	inline := measure(false)
	threaded := measure(true)
	if threaded >= inline {
		t.Errorf("threaded writes (%v) not faster than inline (%v)", threaded, inline)
	}
}

// TestLargestBlockSizeCaches: a block of memcache.MaxItemValueLen bytes
// fits one bank item even under a longest key, so a written file's reads
// hit the bank; one byte more, or no block size at all, and both
// translators refuse to be built.
func TestLargestBlockSizeCaches(t *testing.T) {
	bs := int64(memcache.MaxItemValueLen)
	// The second block's key, path + ":" + bs, is memcache.MaxKeyLen long.
	path := "/" + strings.Repeat("d", memcache.MaxKeyLen-2-len(strconv.FormatInt(bs, 10)))
	r := newRig(t, 1, Config{BlockSize: bs})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, path)
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 2*bs))
		for i := 0; i < 2; i++ {
			if data, err := r.client.Read(p, fd, 0, 2*bs); err != nil || data.Len() != 2*bs {
				t.Fatalf("read %d: %d bytes, %v", i, data.Len(), err)
			}
		}
	})
	if st := r.cmcache.Stats; st.ReadHits != 2 || st.BlockLookups != 4 || st.BlockHits != 4 {
		t.Errorf("block size %d: %d read hits, %d/%d blocks hit; want 2 and 4/4", bs, st.ReadHits, st.BlockHits, st.BlockLookups)
	}

	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	node := net.NewNode("n", 8)
	px := gluster.NewPosix(env, gluster.PosixConfig{Dev: disk.New(env, disk.HighPoint2008), CacheBytes: 1 << 20})
	for _, size := range []int64{bs + 1, 0, -1} {
		cfg := Config{BlockSize: size}
		if CheckBlockSize(size) == nil {
			t.Errorf("CheckBlockSize(%d) = nil", size)
		}
		for _, build := range []struct {
			name string
			f    func()
		}{
			{"NewCMCache", func() { NewCMCache(px, memcache.NewSimClient(node, r.mcds), cfg) }},
			{"NewSMCache", func() { NewSMCache(env, px, memcache.NewSimClient(node, r.mcds), cfg) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s built with block size %d", build.name, size)
					}
				}()
				build.f()
			}()
		}
	}
}

func TestIMCaSmallReadLatencyBeatsNoCache(t *testing.T) {
	// 1-byte reads: IMCa (warm) must beat the plain GlusterFS stack,
	// and smaller blocks must beat larger ones (paper Fig 6(a)).
	measure := func(bs int64) sim.Duration {
		r := newRig(t, 1, Config{BlockSize: bs})
		var total sim.Duration
		r.run(t, func(p *sim.Proc) {
			fd, _ := r.client.Create(p, "/lat")
			r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 64<<10))
			start := p.Now()
			for i := 0; i < 128; i++ {
				r.client.Read(p, fd, int64(i*17)%60000, 1)
			}
			total = p.Now().Sub(start)
		})
		if r.cmcache.Stats.ReadMisses != 0 {
			t.Fatalf("bs=%d: unexpected misses %d", bs, r.cmcache.Stats.ReadMisses)
		}
		return total
	}
	noCache := func() sim.Duration {
		// Same stack without the IMCa translators.
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		srvNode := net.NewNode("server", 8)
		cliNode := net.NewNode("client0", 8)
		dev := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
		px := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: 6 << 30})
		gluster.NewServer(srvNode, px)
		top := gluster.NewFuse(cliNode, gluster.NewClient(cliNode, srvNode))
		var total sim.Duration
		env.Process("client", func(p *sim.Proc) {
			fd, _ := top.Create(p, "/lat")
			top.Write(p, fd, 0, blob.Synthetic(1, 0, 64<<10))
			start := p.Now()
			for i := 0; i < 128; i++ {
				top.Read(p, fd, int64(i*17)%60000, 1)
			}
			total = p.Now().Sub(start)
		})
		env.Run()
		return total
	}()

	small := measure(256)
	mid := measure(2048)
	big := measure(8192)
	if !(small < mid && mid < big) {
		t.Errorf("1-byte read latency ordering wrong: 256B=%v 2K=%v 8K=%v", small, mid, big)
	}
	if mid >= noCache {
		t.Errorf("IMCa 2K block (%v) not faster than NoCache (%v) for 1-byte reads", mid, noCache)
	}
}

func TestIMCaLargeReadFavorsNoCacheWithTinyBlocks(t *testing.T) {
	// Paper Fig 6(b): beyond ~8K records, NoCache beats IMCa with 256-
	// byte blocks (too many per-key costs).
	r := newRig(t, 1, Config{BlockSize: 256})
	var imcaTime sim.Duration
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/big")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			r.client.Read(p, fd, i*128<<10, 64<<10)
		}
		imcaTime = p.Now().Sub(start)
	})

	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client0", 8)
	dev := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
	px := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: 6 << 30})
	gluster.NewServer(srvNode, px)
	top := gluster.NewFuse(cliNode, gluster.NewClient(cliNode, srvNode))
	var noCacheTime sim.Duration
	env.Process("client", func(p *sim.Proc) {
		fd, _ := top.Create(p, "/big")
		top.Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		// Warm the server page cache as the write already did.
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			top.Read(p, fd, i*128<<10, 64<<10)
		}
		noCacheTime = p.Now().Sub(start)
	})
	env.Run()

	if imcaTime <= noCacheTime {
		t.Errorf("64K reads: IMCa 256B blocks (%v) should lose to NoCache (%v)", imcaTime, noCacheTime)
	}
}

func TestAlignSpan(t *testing.T) {
	cases := []struct {
		off, size, bs     int64
		wantOff, wantSize int64
	}{
		{0, 2048, 2048, 0, 2048},
		{1, 1, 2048, 0, 2048},
		{2047, 2, 2048, 0, 4096},
		{4096, 4096, 2048, 4096, 4096},
		{5000, 100, 2048, 4096, 2048},
		{100, 0, 2048, 0, 0},
	}
	for _, c := range cases {
		gotOff, gotSize := alignSpan(c.off, c.size, c.bs)
		if gotOff != c.wantOff || gotSize != c.wantSize {
			t.Errorf("alignSpan(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.off, c.size, c.bs, gotOff, gotSize, c.wantOff, c.wantSize)
		}
	}
}

func TestBlockOffsets(t *testing.T) {
	var bk blockKeys
	build := func(path string, off, size int64) { bk.build(path, off, size, 2048) }
	build("/a/f", 2047, 2)
	if got := bk.offsets; len(got) != 2 || got[0] != 0 || got[1] != 2048 {
		t.Errorf("offsets = %v, want [0 2048]", got)
	}
	if string(bk.buf) != "/a/f:0/a/f:2048" || len(bk.ends) != 2 || bk.ends[0] != len("/a/f:0") {
		t.Errorf("lent keys = %q cut at %v, want the two covering block keys", bk.buf, bk.ends)
	}
	if k0, k1 := bk.key(0), bk.key(1); string(k0) != "/a/f:0" || string(k1) != "/a/f:2048" {
		t.Errorf("keys = %q, %q, want the two covering block keys", k0, k1)
	}
	// The scratch is reused: a narrower read must not see the wider one's
	// leftovers.
	build("/b", 4096, 100)
	if len(bk.offsets) != 1 || bk.offsets[0] != 4096 || len(bk.ends) != 1 || string(bk.key(0)) != blockKey("/b", 4096) {
		t.Errorf("rebuilt scratch = %v %q, want [4096] [/b:4096]", bk.offsets, bk.buf)
	}
	build("/b", 0, 0)
	if len(bk.offsets) != 0 || len(bk.ends) != 0 {
		t.Error("zero-size span returned blocks")
	}
}

func TestStatCodecRoundTrip(t *testing.T) {
	st := &gluster.Stat{
		Path: "/a/b/c", Ino: 42, Size: 1 << 40,
		Atime: 1, Mtime: 2, Ctime: 3, IsDir: false,
	}
	got, err := decodeStat(encodeStat(st))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *st {
		t.Errorf("round trip = %+v, want %+v", got, st)
	}
	if _, err := decodeStat(blob.FromString("junk")); err == nil {
		t.Error("decode of junk succeeded")
	}
}

// blockKey returns the MCD key for the one data block at the given aligned
// byte offset, as the translators build it (appendBlockKey).
func blockKey(path string, blockOff int64) string {
	return string(appendBlockKey(nil, path, blockOff))
}

// statKey returns the MCD key for path's stat structure, as the translators
// build it (appendStatKey).
func statKey(path string) string { return string(appendStatKey(nil, path)) }

func TestKeyScheme(t *testing.T) {
	if statKey("/a/f") != "/a/f:stat" {
		t.Errorf("statKey = %q", statKey("/a/f"))
	}
	if blockKey("/a/f", 4096) != "/a/f:4096" {
		t.Errorf("blockKey = %q", blockKey("/a/f", 4096))
	}
	// A path longer than the key scratch still comes out whole.
	long := "/" + strings.Repeat("d/", 100) + "f"
	if got := blockKey(long, 1<<40); got != long+":1099511627776" {
		t.Errorf("blockKey of a %d-byte path = %q", len(long), got)
	}
}

func TestIMCaGrowthRefreshesStaleTailBlock(t *testing.T) {
	// Regression: a file ending mid-block leaves a short block in the
	// bank; a later write PAST that block (leaving a hole) must refresh
	// it, or cached reads would keep treating the old EOF as the end of
	// file and return truncated data.
	r := newRig(t, 1, Config{BlockSize: 2048})
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/tailgrow")
		r.client.Write(p, fd, 0, blob.Synthetic(1, 0, 3000)) // tail block [2048,3000) short
		// Grow far past the tail block, leaving a hole.
		r.client.Write(p, fd, 10000, blob.Synthetic(1, 10000, 500))
		// Read exactly the old tail block's span: all covering blocks are
		// cached (block 1 was refreshed), so this is a cache hit that must
		// now include the hole zeros.
		got, err := r.client.Read(p, fd, 2048, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 2048 {
			t.Fatalf("read returned %d bytes, want a full block (stale EOF served)", got.Len())
		}
		b := got.Bytes()
		for i := 3000 - 2048; i < 2048; i++ {
			if b[i] != 0 {
				t.Fatalf("hole byte %d = %x, want 0", i, b[i])
			}
		}
	})
	if r.cmcache.Stats.ReadMisses != 0 {
		t.Errorf("the tail-block read should have been a cache hit (misses=%d)", r.cmcache.Stats.ReadMisses)
	}
}

// heldWrites is Posix whose writes, once hold is set, wait at the door
// until release: a held write's stat-before has run and its data has not
// applied, so other operations can be slotted in between.
type heldWrites struct {
	*gluster.Posix
	hold bool
	held []func()
}

func (h *heldWrites) WriteT(t *sim.Task, fd gluster.FD, off int64, data blob.Blob, k func(int64, error)) {
	if !h.hold {
		h.Posix.WriteT(t, fd, off, data, k)
		return
	}
	h.held = append(h.held, func() { h.Posix.WriteT(t, fd, off, data, k) })
}

func (h *heldWrites) release() {
	h.hold = false
	for _, w := range h.held {
		w()
	}
	h.held = nil
}

// TestIMCaWriteOvertakenByTruncatePurges: a write whose stat-before saw an
// 8 KB file applies only after a truncate to 100 bytes and a read that
// pushed the new, short tail block. The write lands inside the end it saw
// but past the real one, so that short block no longer ends the file: the
// write must not push as if only writes had overtaken it.
func TestIMCaWriteOvertakenByTruncatePurges(t *testing.T) {
	const bs, path = 2048, "/overtaken"
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	mcds := []*memcache.SimServer{memcache.NewSimServer(net.NewNode("mcd0", 8), 6<<30)}
	px := &heldWrites{Posix: gluster.NewPosix(env, gluster.PosixConfig{Dev: disk.NewArray(env, 8, 64<<10, disk.HighPoint2008), CacheBytes: 6 << 30})}
	sm := NewSMCache(env, px, memcache.NewSimClient(net.NewNode("server", 8), mcds), Config{BlockSize: bs})
	ct := env.ContextTask("client")
	check := func(what string) func(error) {
		return func(err error) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	var fd gluster.FD
	sm.CreateT(ct, path, func(f gluster.FD, err error) { fd = f; check("create")(err) })
	env.Run()
	sm.WriteT(ct, fd, 0, blob.Synthetic(1, 0, 4*bs), func(_ int64, err error) { check("first write")(err) })
	env.Run()

	px.hold = true
	sm.WriteT(ct, fd, 2*bs, blob.Synthetic(2, 2*bs, bs), func(_ int64, err error) { check("held write")(err) })
	env.Run()
	sm.TruncateT(ct, path, 100, check("truncate"))
	env.Run()
	sm.ReadT(ct, fd, 0, bs, func(got blob.Blob, err error) {
		if err != nil || got.Len() != 100 {
			t.Fatalf("read after the truncate = %d bytes, %v; want 100", got.Len(), err)
		}
	})
	env.Run()
	if it, err := mcds[0].Store().Get(blockKey(path, 0)); err != nil || it.Value.Len() != 100 {
		t.Fatal("the read left no short tail block in the bank; the case is not exercised")
	}
	px.release()
	env.Run()

	want := blob.Synthetic(1, 0, 100).Bytes()
	want = append(want, make([]byte, bs-100)...)
	if it, err := mcds[0].Store().Get(blockKey(path, 0)); err == nil && !bytes.Equal(it.Value.Bytes(), want) {
		t.Errorf("the bank serves block 0 as %d bytes; the file holds %d there", it.Value.Len(), bs)
	}
}
