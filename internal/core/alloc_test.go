package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"imca/internal/disk"
	"imca/internal/memcache"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Allocation contracts of the block data path, in the style of
// fabric/frame_test.go: batch-amortised testing.AllocsPerRun over warm
// pools, so a bound of "n per operation" reads as n·batch. Each contract
// also runs with poison mode on, where a pooled frame released twice or
// touched after its release panics instead of quietly corrupting a later
// call.

// eachPoison runs fn with poison mode off and on.
func eachPoison(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		name := "poison off"
		if on {
			name = "poison on"
		}
		t.Run(name, func(t *testing.T) {
			sim.SetPoison(on)
			defer sim.SetPoison(true) // the package's default; see TestMain
			fn(t)
		})
	}
}

// writtenFile creates path through the full stack and writes data to it, so
// SMCache's write-back leaves every covering block in the bank.
func (r *rig) writtenFile(t *testing.T, path string, data blob.Blob) gluster.FD {
	t.Helper()
	var fd gluster.FD
	r.run(t, func(p *sim.Proc) {
		var err error
		if fd, err = r.client.Create(p, path); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		if _, err = r.client.Write(p, fd, 0, data); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	})
	return fd
}

// TestReadTBankHitAllocations: a CMCache read served from the bank
// allocates nothing — the bank borrows the read's key bytes, copying them
// into its pooled requests — except, when the blocks do not coalesce, the
// result blob's one spill slice; whether it is the single-key fast path or
// an 8-key scatter over 2 MCDs. Issued at Fuse.ReadT, the top of the client
// stack, it costs the same: the FUSE crossing runs on a pooled frame.
func TestReadTBankHitAllocations(t *testing.T) {
	const bs, readsPerRun = 2048, 64
	raw := make([]byte, 8*bs)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	cases := []struct {
		name    string
		data    blob.Blob
		size    int64
		perRead float64
	}{
		{"1 key synthetic", blob.Synthetic(3, 0, 8*bs), bs, 0},
		{"8 keys synthetic", blob.Synthetic(3, 0, 8*bs), 8 * bs, 0},
		{"8 keys bytes", blob.FromBytes(raw), 8 * bs, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachPoison(t, func(t *testing.T) {
				r := newRig(t, 2, Config{BlockSize: bs})
				fd := r.writtenFile(t, "/alloc/f", tc.data)
				ct := r.env.ContextTask("reader")
				for _, entry := range []struct {
					name string
					fs   gluster.TaskFS
				}{{"CMCache.ReadT", r.cmcache}, {"Fuse.ReadT", r.client}} {
					reads := 0
					k := func(got blob.Blob, err error) {
						if err != nil || got.Len() != tc.size {
							t.Fatalf("%s = %d bytes, %v", entry.name, got.Len(), err)
						}
						reads++
					}
					run := func() {
						for i := 0; i < readsPerRun; i++ {
							entry.fs.ReadT(ct, fd, 0, tc.size, k)
						}
						r.env.Run()
					}
					run() // warm every pool along the path
					misses := r.cmcache.Stats.ReadMisses
					avg := testing.AllocsPerRun(20, run)
					if max := tc.perRead * readsPerRun; avg > max {
						t.Errorf("batch of %d bank-hit reads at %s allocated %.0f times, want <= %.0f (%.0f per read)",
							readsPerRun, entry.name, avg, max, tc.perRead)
					}
					if r.cmcache.Stats.ReadMisses != misses {
						t.Errorf("%d reads missed the bank; the contract is about hits", r.cmcache.Stats.ReadMisses-misses)
					}
					if reads != 22*readsPerRun {
						t.Errorf("completed %d reads at %s, want %d", reads, entry.name, 22*readsPerRun)
					}
				}
				if len(r.mcds[0].Store().Keys()) == 0 || len(r.mcds[1].Store().Keys()) == 0 {
					t.Error("the file's blocks sit on one MCD; the scatter was not exercised")
				}
			})
		})
	}
}

// TestPushBlocksTAllocations: an SMCache push allocates nothing — not for
// its blocks' keys, which it lends and the store copies into its key pages
// (see blockKeys in imca.go), not for walking the blocks, not for recording
// them resident (a bit each), and not for the bank's entries, which the
// store recycles from the blocks these displace.
func TestPushBlocksTAllocations(t *testing.T) {
	const bs, blocks, pushesPerRun = 2048, 16, 4
	eachPoison(t, func(t *testing.T) {
		r := newRig(t, 2, Config{BlockSize: bs})
		data := blob.Synthetic(5, 0, blocks*bs)
		ct := r.env.ContextTask("pusher")
		pushes := 0
		k := func() { pushes++ }
		run := func() {
			for i := 0; i < pushesPerRun; i++ {
				r.smcache.pushes.push(ct, "/alloc/p", 0, data, 0, k)
			}
			r.env.Run()
		}
		run()
		avg := testing.AllocsPerRun(20, run)
		if avg != 0 {
			t.Errorf("batch of %d 16-block pushes allocated %.0f times, want 0", pushesPerRun, avg)
		}
		if pushes != 22*pushesPerRun {
			t.Errorf("completed %d pushes, want %d", pushes, 22*pushesPerRun)
		}
		if got := r.smcache.Stats.BlockPushes; got != uint64(22*pushesPerRun*blocks) {
			t.Errorf("BlockPushes = %d, want %d", got, 22*pushesPerRun*blocks)
		}
	})
}

// TestReadTAbandonedLookupThenReuse drives the two lifetimes pooling makes
// delicate, with frame poisoning on. The bank is slow, so a partition that
// lands after the requests arrived but before they are served abandons the
// read's multi-get mid-flight, and the read falls back to the server. The
// links heal at once, so later reads reach the bank: the read's continuation
// immediately issues the next read on the very readOp it was handed back —
// released before the continuation ran — while the abandoned legs' replies
// are still on their way.
func TestReadTAbandonedLookupThenReuse(t *testing.T) {
	const bs = 2048
	r := newRig(t, 2, Config{BlockSize: bs})
	payload := blob.Synthetic(9, 0, 8*bs)
	fd := r.writtenFile(t, "/alloc/d", payload)
	for _, m := range r.mcds {
		m.SetSlowdown(1000)
	}
	r.net.EnableFaults()
	r.env.Defer(time.Millisecond, func() {
		for _, m := range r.mcds {
			r.net.CutLink("client0", m.Node().Name())
			r.net.HealLink("client0", m.Node().Name())
		}
	})
	ct := r.env.ContextTask("reader")
	var first, second blob.Blob
	r.cmcache.ReadT(ct, fd, 0, 8*bs, func(got blob.Blob, err error) {
		if err != nil {
			t.Fatalf("first read: %v", err)
		}
		first = got
		if len(r.cmcache.readOps) != 1 {
			t.Fatalf("readOp not back in its pool when the continuation runs (%d pooled)", len(r.cmcache.readOps))
		}
		r.cmcache.ReadT(ct, fd, bs, 4*bs, func(got blob.Blob, err error) {
			if err != nil {
				t.Fatalf("second read: %v", err)
			}
			second = got
		})
	})
	r.env.Run()
	if !first.Equal(payload) {
		t.Error("abandoned read returned wrong data from the server fallback")
	}
	if !second.Equal(payload.Slice(bs, 5*bs)) {
		t.Error("read issued from inside the continuation returned wrong data")
	}
	if r.cmcache.Stats.ReadMisses != 1 || r.cmcache.Stats.ReadHits != 1 {
		t.Errorf("ReadMisses=%d ReadHits=%d, want 1 and 1", r.cmcache.Stats.ReadMisses, r.cmcache.Stats.ReadHits)
	}
	if got := r.cmcache.Bank().Stats().Unreachables; got != 2 {
		t.Errorf("bank unreachables = %d, want 2 (one per abandoned leg)", got)
	}
	if len(r.cmcache.readOps) != 1 {
		t.Errorf("%d readOps pooled after both reads, want the one op reused", len(r.cmcache.readOps))
	}
}

// TestReadTAbandonedLegLooksUpItsOwnKeys: a multi-get leg a cut abandoned is
// served only after its read's op has been reused for the next read — the
// fallback reads a brick with no server translator, so it is back long
// before the slow daemon reaches the leg — and the daemon must still look up
// the keys the leg asked for: every one hits. The leg's request owns a copy
// of those keys, and frame poisoning (on in this package) overwrites a
// recycled request's key bytes, so a leg reading keys it no longer owned
// would miss.
func TestReadTAbandonedLegLooksUpItsOwnKeys(t *testing.T) {
	const bs, path = 2048, "/alloc/l"
	r := newPopulateRig(t, Config{BlockSize: bs})
	payload := blob.Synthetic(9, 0, 8*bs)
	fd := r.writtenFile(t, path, payload)
	r.run(t, func(p *sim.Proc) {
		for off := int64(0); off < payload.Len(); off += bs {
			if err := r.cmcache.Bank().Set(p, blockKey(path, off), payload.Slice(off, off+bs)); err != nil {
				t.Fatal(err)
			}
		}
	})
	mcd := r.mcds[0]
	mcd.SetSlowdown(1000)
	r.net.EnableFaults()
	r.env.Defer(time.Millisecond, func() {
		r.net.CutLink("client0", mcd.Node().Name())
		r.net.HealLink("client0", mcd.Node().Name())
	})
	ct := r.env.ContextTask("reader")
	var second blob.Blob
	r.cmcache.ReadT(ct, fd, 0, 8*bs, func(_ blob.Blob, err error) {
		if err != nil {
			t.Fatalf("first read: %v", err)
		}
		if st := mcd.Store().Stats(); st.CmdGet != 0 {
			t.Fatal("the abandoned leg was served before its read's op was reused; the late lookup is not exercised")
		}
		r.cmcache.ReadT(ct, fd, bs, 4*bs, func(got blob.Blob, err error) {
			if err != nil {
				t.Fatalf("second read: %v", err)
			}
			second = got
		})
	})
	r.env.Run()
	if !second.Equal(payload.Slice(bs, 5*bs)) {
		t.Error("read issued from inside the continuation returned wrong data")
	}
	if r.cmcache.Stats.ReadMisses != 1 || r.cmcache.Stats.ReadHits != 1 {
		t.Errorf("ReadMisses=%d ReadHits=%d, want 1 and 1", r.cmcache.Stats.ReadMisses, r.cmcache.Stats.ReadHits)
	}
	if st := mcd.Store().Stats(); st.GetHits != 8+4 || st.GetMisses != 0 {
		t.Errorf("daemon looked up %d hits and %d misses, want all hits: the abandoned leg's 8 keys and the second read's 4",
			st.GetHits, st.GetMisses)
	}
}

// newPopulateRig is newRig without the server translator: CMCache in
// client-populate mode over a brick that is plain Posix, so what feeds the
// bank is the client's write-back alone.
func newPopulateRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode, cliNode := net.NewNode("server", 8), net.NewNode("client0", 8)
	mcds := []*memcache.SimServer{memcache.NewSimServer(net.NewNode("mcd0", 8), 6<<30)}
	px := gluster.NewPosix(env, gluster.PosixConfig{Dev: disk.NewArray(env, 8, 64<<10, disk.HighPoint2008), CacheBytes: 6 << 30})
	gluster.NewServer(srvNode, px)
	cm := NewCMCache(gluster.NewClient(cliNode, srvNode), memcache.NewSimClient(cliNode, mcds), cfg)
	return &rig{env: env, net: net, posix: px, cmcache: cm, client: gluster.NewFuse(cliNode, cm), mcds: mcds}
}

// TestWriteTAllocations: a steady-state tracked write issued at Fuse.WriteT —
// through CMCache, the protocol client, the fabric, the daemon, the
// translator that feeds the bank, and Posix — allocates what the modelled
// system retains and nothing for the stack's own bookkeeping: the count is
// that sum, term by term, exactly. A batch is one write after another, as a
// client issues them, or all of them in flight on the descriptor at once.
func TestWriteTAllocations(t *testing.T) {
	// 4 KB writes at 4 KB offsets never straddle a RAID stripe, whose
	// fan-out to member disks is not part of this contract.
	const bs, blocks, writesPerRun = 2048, 2, 16
	const (
		// A stat push cuts its encoding, which the bank keeps, from the
		// pool's slab (statSlab): one 4 KB slab per 80 of this file's stats,
		// so the 4 refills across AllocsPerRun's 20 batches truncate to 0.
		statValue   = 0
		stats       = 0 // Posix lends the stat before the write and the one after from its frame
		extents     = 0 // extentMap.write splices an overwrite into the inode's extent slice in place
		bankEntries = 0 // a rewritten block replaces its entry, and the store recycles the old one
		retained    = statValue + stats + extents + bankEntries
		helperActor = 3 // Threaded: the write-back's helper — its Task, its Done event, its first slice
	)
	// A concurrent batch under inline SMCache: every push is judged against
	// the writes that apply after its read began (pushPool.judged), so 13 of
	// the 16 stat pushes are overtaken and delete, needing no encoded value,
	// and 12 of the 32 blocks are deleted rather than refreshed. Each write
	// is overtaken by writes alone, inside the file's end, so none purges.
	const staleStats, staleBlocks = 13, 12
	modes := []struct {
		name     string
		rig      func(t *testing.T) *rig
		perWrite float64
		judged   bool
	}{
		{"smcache", func(t *testing.T) *rig { return newRig(t, 2, Config{BlockSize: bs}) }, retained, true},
		{"client-populate", func(t *testing.T) *rig { return newPopulateRig(t, Config{BlockSize: bs, ClientPopulate: true}) }, retained, false},
		{"threaded", func(t *testing.T) *rig { return newRig(t, 2, Config{BlockSize: bs, Threaded: true}) }, retained + helperActor, false},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			eachPoison(t, func(t *testing.T) {
				for _, concurrent := range []bool{false, true} {
					name, wantAllocs, wantBlocks := "sequential", mode.perWrite*writesPerRun, writesPerRun*blocks
					if concurrent {
						name = "concurrent"
						if mode.judged {
							wantAllocs, wantBlocks = wantAllocs-staleStats*statValue, wantBlocks-staleBlocks
						}
					}
					t.Run(name, func(t *testing.T) {
						r := mode.rig(t)
						fd := r.writtenFile(t, "/alloc/w", blob.Synthetic(3, 0, writesPerRun*blocks*bs))
						top, ct := r.client, r.env.ContextTask("writer")
						write := func(i int, k func(int64, error)) {
							off := int64(i) * blocks * bs
							top.WriteT(ct, fd, off, blob.Synthetic(3, off, blocks*bs), k)
						}
						writes := 0
						var next func(n int64, err error)
						next = func(n int64, err error) {
							if err != nil || n != blocks*bs {
								t.Fatalf("write = %d, %v", n, err)
							}
							if writes++; !concurrent && writes%writesPerRun != 0 {
								write(writes%writesPerRun, next)
							}
						}
						run := func() {
							write(0, next)
							for i := 1; concurrent && i < writesPerRun; i++ {
								write(i, next)
							}
							r.env.Run()
						}
						run() // warm every pool along the path
						avg := testing.AllocsPerRun(20, run)
						if avg != wantAllocs {
							t.Errorf("batch of %d writes allocated %.0f times, want %.0f", writesPerRun, avg, wantAllocs)
						}
						if writes != 22*writesPerRun {
							t.Errorf("completed %d writes, want %d", writes, 22*writesPerRun)
						}
						held, stat := 0, false
						for _, m := range r.mcds {
							for _, key := range m.Store().Keys() {
								if key == statKey("/alloc/w") {
									stat = true
								} else {
									held++
								}
							}
						}
						if held != wantBlocks || !stat {
							t.Errorf("bank holds %d blocks (stat: %v), want %d and the stat", held, stat, wantBlocks)
						}
						if r.smcache != nil && r.smcache.Stats.Purges != 0 {
							t.Errorf("%d purges; no write's old end of file was unknown", r.smcache.Stats.Purges)
						}
					})
				}
			})
		})
	}
}

// TestThreadedWriteBackOutlivesItsWrite: in Threaded mode a write completes
// while its read-back and pushes are still running on a helper actor. The
// writer's continuation issues the next write on the same descriptor at once,
// and that one's continuation closes it — so a second write-back starts, and
// a close's purge runs, while the first write-back is in flight. Its frame
// must stay out of the pool until it ends, the file must hold both writes,
// and everything the helpers leave in the bank must be recorded for the next
// purge.
func TestThreadedWriteBackOutlivesItsWrite(t *testing.T) {
	const bs, path = 2048, "/alloc/t"
	r := newRig(t, 2, Config{BlockSize: bs, Threaded: true})
	ref := &refFile{}
	seed := blob.Synthetic(5, 0, 600*bs)
	fd := r.writtenFile(t, path, seed)
	ref.write(0, seed.Bytes())
	r.env.Run() // let the setup write's helper finish

	top, ct := r.client, r.env.ContextTask("writer")
	first, second := blob.Synthetic(6, 3*bs, 512*bs), blob.Synthetic(7, 10*bs+100, 9*bs)
	pushesAtClose := uint64(0) // blocks landed when the close is issued
	top.WriteT(ct, fd, 3*bs, first, func(_ int64, err error) {
		if err != nil {
			t.Fatalf("first write: %v", err)
		}
		if n := len(r.smcache.writes.free); n != 0 {
			t.Fatalf("%d write-back frames pooled while the first write's helper has yet to run", n)
		}
		top.WriteT(ct, fd, 10*bs+100, second, func(_ int64, err error) {
			if err != nil {
				t.Fatalf("second write: %v", err)
			}
			if n := len(r.smcache.writes.free); n != 0 {
				t.Fatalf("%d write-back frames pooled with both helpers in flight", n)
			}
			pushesAtClose = r.smcache.Stats.BlockPushes
			top.CloseT(ct, fd, func(err error) {
				if err != nil {
					t.Fatalf("close: %v", err)
				}
			})
		})
	})
	r.env.Run()
	ref.write(3*bs, first.Bytes())
	ref.write(10*bs+100, second.Bytes())

	if n := len(r.smcache.writes.free); n != 2 {
		t.Errorf("%d write-back frames pooled after the drain, want the 2 that overlapped", n)
	}
	if r.smcache.Stats.BlockPushes == pushesAtClose {
		t.Error("no block landed after the close was issued; the overlap was not exercised")
	}
	checkResidentRecorded(t, r.smcache, r.mcds, path)
	r.run(t, func(p *sim.Proc) {
		fd, err := r.client.Open(p, path) // purges what the helpers left
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // from the brick, then from the bank
			got, err := r.client.Read(p, fd, 0, int64(len(ref.data)))
			if err != nil || !got.Equal(blob.FromBytes(ref.data)) {
				t.Fatalf("pass %d: read back %d bytes, err %v; want the reference's %d", pass, got.Len(), err, len(ref.data))
			}
			p.Sleep(100 * time.Millisecond) // the read's pushes are on a helper too
		}
	})
	if r.cmcache.Stats.ReadHits == 0 {
		t.Error("the second pass did not come from the bank")
	}
}

// TestMetadataVerbsAllocations: the metadata verbs issued at Fuse — through
// CMCache, the protocol client, the fabric, the daemon, SMCache and Posix —
// allocate the state the operation creates and nothing for the stack's own
// bookkeeping. A batch runs its operations one after another, as the stat
// benchmark's set-up does, each on a path of its own; its event count and
// the keys its purges delete are pinned exactly: pooling the frames must
// not move a single event.
func TestMetadataVerbsAllocations(t *testing.T) {
	const (
		bs    = 2048
		batch = 64
		runs  = 4
		// What one operation keeps, by name.
		statValue = 0
		// A stat push cuts its encoding from the pool's slab (statSlab): a
		// batch of 64 stats (3.6 KB) can straddle one 4 KB slab refill.
		statSlab   = 1.0 / batch
		inode      = 1 // Posix's inode of a new file
		metaPages  = 3 // the page cache's records of the new file's metadata page
		changesRec = 1 // SMCache's record of what applied to a path, made by its first unlink or truncate
		growth     = 1 // the maps a new path enters, their growth amortised over a batch
	)
	created := func(m *metaRig, first int) { m.created(first, batch) }
	// uncached makes the batch's files and drops their stats from the bank,
	// so each stat of the batch misses and SMCache serves it and pushes it.
	uncached := func(m *metaRig, first int) {
		m.created(first, batch)
		for _, path := range m.paths[first : first+batch] {
			deleted := 0
			for _, mcd := range m.mcds {
				if mcd.Store().Delete(statKey(path)) == nil {
					deleted++
				}
			}
			if deleted != 1 {
				m.t.Fatalf("%s's stat was on %d daemons, want 1", path, deleted)
			}
		}
	}
	cases := []struct {
		name string
		// prepare, unless nil, runs before each batch, unmeasured, with the
		// batch's first path.
		prepare func(m *metaRig, first int)
		// op runs the operation on path i, then k.
		op    func(m *metaRig, i int, k func())
		perOp float64
		// Per operation: events processed, keys purged.
		events, purges uint64
	}{
		{"create+close", nil, (*metaRig).createClose, statValue + statSlab + inode + metaPages + growth, 42, 0},
		{"open+close", created, (*metaRig).openClose, statValue + statSlab, 41, 0},
		{"open+close resident", created, (*metaRig).pushOpenClose, statValue + statSlab, 145, 4},
		{"truncate", created, (*metaRig).truncate, changesRec + statValue + statSlab + growth, 41, 1},
		{"unlink", created, (*metaRig).unlink, changesRec + growth, 28, 1},
		{"stat (bank miss)", uncached, (*metaRig).stat, statValue + statSlab, 40, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachPoison(t, func(t *testing.T) {
				m := newMetaRig(t, Config{BlockSize: bs}, (warmRuns+runs)*batch)
				m.op = tc.op
				var events, purges uint64
				prepare := func() {
					if tc.prepare != nil {
						tc.prepare(m, m.next)
					}
				}
				run := func() {
					from, purged := m.env.EventsProcessed, m.smcache.Stats.Purges
					m.end = m.next + batch
					m.step()
					m.env.Run()
					events, purges = m.env.EventsProcessed-from, m.smcache.Stats.Purges-purged
				}
				avg := allocsAround(runs, prepare, run)
				t.Logf("%.2f allocations and %.2f events per operation", avg/batch, float64(events)/batch)
				if max := tc.perOp * batch; avg > max {
					t.Errorf("batch of %d allocated %.0f times, want <= %.0f (%.0f per operation)", batch, avg, max, tc.perOp)
				}
				if events != tc.events*batch {
					t.Errorf("batch of %d processed %d events, want %d per operation", batch, events, tc.events)
				}
				if purges != tc.purges*batch {
					t.Errorf("batch of %d purged %d keys, want %d per operation", batch, purges, tc.purges)
				}
				if want := (warmRuns + runs) * batch; m.done != want {
					t.Errorf("completed %d operations, want %d", m.done, want)
				}
			})
		})
	}
}

// warmRuns is how many runs allocsAround leaves unmeasured: enough to grow
// every pool and free list along the path.
const warmRuns = 2

// allocsAround is testing.AllocsPerRun with an unmeasured prepare before
// each run: warmRuns runs, then the mean mallocs of runs more, truncated to
// an integer as AllocsPerRun's is.
func allocsAround(runs int, prepare, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < warmRuns+runs; i++ {
		prepare()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if i >= warmRuns {
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total / uint64(runs))
}

// metaRig drives a rig's full client stack in continuation style, over
// paths named up front so naming them is not measured. A batch runs op on
// paths next through end-1, one after another, with every continuation
// bound once: the rig allocates nothing of its own.
type metaRig struct {
	*rig
	top   gluster.TaskFS
	ct    *sim.Task
	paths []string
	data  blob.Blob // what a push leaves resident

	op              func(m *metaRig, i int, k func())
	next, end, done int
	// The current operation's continuation, and those of its steps.
	k                func()
	fnFinished       func()
	fnOpened         func(gluster.FD, error)
	fnClosed, fnDone func(error)
	fnPushed         func()
	fnStatted        func(*gluster.Stat, error)
	t                *testing.T
}

func newMetaRig(t *testing.T, cfg Config, n int) *metaRig {
	r := newRig(t, 2, cfg)
	m := &metaRig{rig: r, top: r.client, ct: r.env.ContextTask("meta"), t: t}
	for i := 0; i < n; i++ {
		m.paths = append(m.paths, fmt.Sprintf("/meta/f%06d", i))
	}
	m.fnFinished, m.fnOpened, m.fnClosed, m.fnDone, m.fnPushed = m.finished, m.opened, m.closed, m.closed, m.pushed
	m.fnStatted = m.statted
	m.data = blob.Synthetic(7, 0, 4*int64(cfg.BlockSize))
	return m
}

// step runs the batch's next operation, if any is left.
func (m *metaRig) step() {
	if m.next == m.end {
		return
	}
	i := m.next
	m.next++
	m.op(m, i, m.fnFinished)
}

// finished counts an operation done and runs the next.
func (m *metaRig) finished() {
	m.done++
	m.step()
}

func (m *metaRig) opened(fd gluster.FD, err error) {
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.top.CloseT(m.ct, fd, m.fnClosed)
}

func (m *metaRig) closed(err error) {
	if err != nil {
		m.t.Fatalf("metadata operation: %v", err)
	}
	m.k()
}

func (m *metaRig) createClose(i int, k func()) {
	m.k = k
	m.top.CreateT(m.ct, m.paths[i], m.fnOpened)
}

func (m *metaRig) openClose(i int, k func()) {
	m.k = k
	m.top.OpenT(m.ct, m.paths[i], m.fnOpened)
}

// pushOpenClose leaves four blocks of the first path resident, then opens
// and closes it, purging them. It is one file each time, whose resident set
// keeps its capacity: the push costs its key string alone.
func (m *metaRig) pushOpenClose(_ int, k func()) {
	m.k = k
	m.smcache.pushes.push(m.ct, m.paths[0], 0, m.data, 0, m.fnPushed)
}

func (m *metaRig) pushed() { m.openClose(0, m.k) }

func (m *metaRig) truncate(i int, k func()) {
	m.k = k
	m.top.TruncateT(m.ct, m.paths[i], 0, m.fnDone)
}

func (m *metaRig) unlink(i int, k func()) {
	m.k = k
	m.top.UnlinkT(m.ct, m.paths[i], m.fnDone)
}

func (m *metaRig) stat(i int, k func()) {
	m.k = k
	m.top.StatT(m.ct, m.paths[i], m.fnStatted)
}

func (m *metaRig) statted(st *gluster.Stat, err error) {
	if err != nil || st.IsDir {
		m.t.Fatalf("stat = %+v, %v", st, err)
	}
	m.k()
}

// created makes files first through first+n-1.
func (m *metaRig) created(first, n int) {
	i, end := first, first+n
	var next func()
	next = func() {
		if i++; i < end {
			m.createClose(i, next)
		}
	}
	m.createClose(i, next)
	m.env.Run()
}
