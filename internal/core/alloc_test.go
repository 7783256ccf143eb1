package core

import (
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// Allocation contracts of the block data path, in the style of
// fabric/frame_test.go: batch-amortised testing.AllocsPerRun over warm
// pools, so a bound of "n per operation" reads as n·batch (+1 for
// RunUntil's bookkeeping closure). Each contract also runs with the
// fabric's frame-poison mode on, where a pooled frame touched after its
// release panics instead of quietly corrupting a later call.

// eachPoison runs fn with frame poisoning off and on.
func eachPoison(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		name := "poison off"
		if on {
			name = "poison on"
		}
		t.Run(name, func(t *testing.T) {
			fabric.SetFramePoison(on)
			defer fabric.SetFramePoison(false)
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

// TestReadTBankHitAllocations: a CMCache read served from the bank costs
// the read's one key string (every covering key is a substring of it) and,
// when the blocks do not coalesce, the result blob's one spill slice —
// whether it is the single-key fast path or an 8-key scatter over 2 MCDs.
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
		{"1 key synthetic", blob.Synthetic(3, 0, 8*bs), bs, 1},
		{"8 keys synthetic", blob.Synthetic(3, 0, 8*bs), 8 * bs, 1},
		{"8 keys bytes", blob.FromBytes(raw), 8 * bs, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachPoison(t, func(t *testing.T) {
				r := newRig(t, 2, Config{BlockSize: bs})
				fd := r.writtenFile(t, "/alloc/f", tc.data)
				ct := r.env.ContextTask("reader")
				reads := 0
				k := func(got blob.Blob, err error) {
					if err != nil || got.Len() != tc.size {
						t.Fatalf("read = %d bytes, %v", got.Len(), err)
					}
					reads++
				}
				run := func() {
					for i := 0; i < readsPerRun; i++ {
						r.cmcache.ReadT(ct, fd, 0, tc.size, k)
					}
					r.env.Run()
				}
				run() // warm every pool along the path
				misses := r.cmcache.Stats.ReadMisses
				avg := testing.AllocsPerRun(20, run)
				if max := tc.perRead*readsPerRun + 1; avg > max {
					t.Errorf("batch of %d bank-hit reads allocated %.0f times, want <= %.0f (%.0f per read)",
						readsPerRun, avg, max, tc.perRead)
				}
				if r.cmcache.Stats.ReadMisses != misses {
					t.Errorf("%d reads missed the bank; the contract is about hits", r.cmcache.Stats.ReadMisses-misses)
				}
				if reads != 22*readsPerRun {
					t.Errorf("completed %d reads, want %d", reads, 22*readsPerRun)
				}
				if len(r.mcds[0].Store().Keys()) == 0 || len(r.mcds[1].Store().Keys()) == 0 {
					t.Error("the file's blocks sit on one MCD; the scatter was not exercised")
				}
			})
		})
	}
}

// TestPushBlocksTAllocations: an SMCache push allocates exactly one key
// string per block and nothing else — not for walking the blocks, not for
// recording them resident (a bit each), and not for the bank's entry, which
// the store recycles from the block this one displaces. The key stays one
// string per block by choice: a stored key must not pin its neighbours'
// bytes (see blockKeys in imca.go), and sharing one backing string per push
// is not worth giving that up.
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
				r.smcache.pushBlocksT(ct, "/alloc/p", 0, data, k)
			}
			r.env.Run()
		}
		run()
		avg := testing.AllocsPerRun(20, run)
		want := float64(pushesPerRun * blocks)
		if avg < want || avg > want+1 {
			t.Errorf("batch of %d 16-block pushes allocated %.0f times, want %.0f (one key string per block)",
				pushesPerRun, avg, want)
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
// delicate, with frame poisoning on. The bank is slow, so a read whose
// deadline outlasts the request but not the service abandons its multi-get
// mid-flight and falls back to the server; its continuation immediately
// issues the next read on the very readOp it was handed back — released
// before the continuation ran — while the abandoned legs' replies are still
// on their way.
func TestReadTAbandonedLookupThenReuse(t *testing.T) {
	fabric.SetFramePoison(true)
	defer fabric.SetFramePoison(false)
	const bs = 2048
	r := newRig(t, 2, Config{BlockSize: bs})
	payload := blob.Synthetic(9, 0, 8*bs)
	fd := r.writtenFile(t, "/alloc/d", payload)
	for _, m := range r.mcds {
		m.SetSlowdown(1000)
	}
	col := optrace.NewCollector()
	ct := r.env.ContextTask("reader")
	var first, second blob.Blob
	col.Begin(ct, "read").SetDeadline(ct.Now().Add(time.Millisecond))
	r.cmcache.ReadT(ct, fd, 0, 8*bs, func(got blob.Blob, err error) {
		if err != nil {
			t.Fatalf("first read: %v", err)
		}
		first = got
		col.End(ct)
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
		t.Error("deadline-abandoned read returned wrong data from the server fallback")
	}
	if !second.Equal(payload.Slice(bs, 5*bs)) {
		t.Error("read issued from inside the continuation returned wrong data")
	}
	if r.cmcache.Stats.ReadMisses != 1 || r.cmcache.Stats.ReadHits != 1 {
		t.Errorf("ReadMisses=%d ReadHits=%d, want 1 and 1", r.cmcache.Stats.ReadMisses, r.cmcache.Stats.ReadHits)
	}
	if got := r.cmcache.Bank().DeadlineMisses(); got != 2 {
		t.Errorf("bank deadline misses = %d, want 2 (one per abandoned leg)", got)
	}
	if len(r.cmcache.readOps) != 1 {
		t.Errorf("%d readOps pooled after both reads, want the one op reused", len(r.cmcache.readOps))
	}
}
