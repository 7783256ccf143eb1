package disk

import (
	"slices"
	"testing"
	"time"

	"imca/internal/sim"
)

// awaitAccess is a blocking access for a test's process: p awaits AccessT.
func awaitAccess(p *sim.Proc, dev Device, addr, size int64, write bool) {
	p.Await(func(t *sim.Task) { dev.AccessT(t, addr, size, write, t.End) })
}

func run(fn func(p *sim.Proc)) sim.Time {
	env := sim.NewEnv()
	env.Process("t", fn)
	return env.Run()
}

func TestSequentialAccessPaysOneSeek(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
	env.Process("t", func(p *sim.Proc) {
		awaitAccess(p, d, 0, 1e6, false)
		awaitAccess(p, d, 1e6, 1e6, false) // continues previous: no seek
	})
	env.Run()
	if d.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1", d.Seeks)
	}
	// 10ms seek + 2 * 10ms transfer
	want := sim.Time(30 * time.Millisecond)
	if got := env.Now(); got != want {
		t.Errorf("elapsed %v, want %v", got, want)
	}
}

func TestRandomAccessPaysSeekEachTime(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			awaitAccess(p, d, int64(i)*1e9, 4096, false) // far apart
		}
	})
	env.Run()
	if d.Seeks != 4 {
		t.Errorf("Seeks = %d, want 4", d.Seeks)
	}
}

func TestInterleavedStreamsDegrade(t *testing.T) {
	// Two processes reading sequential but distinct regions through one
	// disk force a seek per access; aggregate throughput collapses versus
	// a single stream.
	mk := func(streams int) sim.Duration {
		env := sim.NewEnv()
		d := New(env, HighPoint2008)
		const per = 32
		for s := 0; s < streams; s++ {
			base := int64(s) * 1e10
			env.Process("s", func(p *sim.Proc) {
				for i := int64(0); i < per; i++ {
					awaitAccess(p, d, base+i*1e6, 1e6, false)
				}
			})
		}
		return sim.Duration(env.Run())
	}
	one := mk(1)
	two := mk(2)
	// Two streams move twice the data; if seeks dominated nothing, time
	// would only double. Require clearly worse than 2x.
	if two < one*5/2 {
		t.Errorf("interleaving: 1 stream %v, 2 streams %v; expected >2.5x degradation", one, two)
	}
}

func TestDiskArmSerializes(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, Params{SeekTime: time.Millisecond, TransferRate: 1e9})
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		env.Process("t", func(p *sim.Proc) {
			awaitAccess(p, d, int64(i)*1e8, 1e6, false)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	if finish[0] == finish[1] || finish[1] == finish[2] {
		t.Errorf("concurrent accesses did not serialize: %v", finish)
	}
}

func TestWriteAccounting(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, HighPoint2008)
	env.Process("t", func(p *sim.Proc) {
		awaitAccess(p, d, 0, 1000, true)
		awaitAccess(p, d, 1000, 500, false)
	})
	env.Run()
	if d.Writes != 1 || d.BytesWritten != 1000 {
		t.Errorf("writes=%d bytes=%d, want 1/1000", d.Writes, d.BytesWritten)
	}
	if d.Reads != 1 || d.BytesRead != 500 {
		t.Errorf("reads=%d bytes=%d, want 1/500", d.Reads, d.BytesRead)
	}
}

// mapRequest splits [addr, addr+size) into its stripe-aligned chunks.
func mapRequest(a *Array, addr, size int64) []chunk {
	var out []chunk
	for size > 0 {
		c := a.chunkAt(addr, size)
		out = append(out, c)
		addr += c.size
		size -= c.size
	}
	return out
}

func TestArrayMapRequestSplitsAtStripes(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 4, 64<<10, HighPoint2008)
	chunks := mapRequest(a, 60<<10, 16<<10) // crosses the 64K boundary
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(chunks))
	}
	if chunks[0].size != 4<<10 || chunks[1].size != 12<<10 {
		t.Errorf("chunk sizes %d,%d want 4K,12K", chunks[0].size, chunks[1].size)
	}
	if chunks[0].member != 0 || chunks[1].member != 1 {
		t.Error("chunks mapped to wrong members")
	}
}

func TestArrayMapRequestRoundRobins(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 2, 1024, HighPoint2008)
	chunks := mapRequest(a, 0, 4096)
	want := []int{0, 1, 0, 1}
	for i, c := range chunks {
		if c.member != want[i] {
			t.Errorf("chunk %d on wrong disk", i)
		}
	}
	// Member addresses advance every full rotation.
	if chunks[2].addr != 1024 || chunks[3].addr != 1024 {
		t.Errorf("member addresses %d,%d want 1024,1024", chunks[2].addr, chunks[3].addr)
	}
}

func TestArrayParallelSpeedup(t *testing.T) {
	// A large sequential read from an 8-disk array should be close to 8x
	// faster than from one disk.
	elapsed := func(n int) sim.Duration {
		env := sim.NewEnv()
		a := NewArray(env, n, 64<<10, Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		env.Process("t", func(p *sim.Proc) {
			awaitAccess(p, a, 0, 64<<20, false)
		})
		return sim.Duration(env.Run())
	}
	one := elapsed(1)
	eight := elapsed(8)
	ratio := float64(one) / float64(eight)
	if ratio < 6 || ratio > 9 {
		t.Errorf("8-disk speedup = %.1fx, want ~8x (1 disk %v, 8 disks %v)", ratio, one, eight)
	}
}

func TestArraySmallRequestSingleDisk(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 8, 64<<10, HighPoint2008)
	env.Process("t", func(p *sim.Proc) {
		awaitAccess(p, a, 0, 4096, false)
	})
	env.Run()
	if a.disks[0].Reads != 1 {
		t.Errorf("disk0 reads = %d, want 1", a.disks[0].Reads)
	}
	for i := 1; i < 8; i++ {
		if a.disks[i].Reads != 0 {
			t.Errorf("disk%d touched for a sub-stripe request", i)
		}
	}
}

func TestArrayCoalescesSequentialChunks(t *testing.T) {
	// A 1MB request over 2 disks with a 64K stripe yields 8 contiguous
	// 64K chunks per disk -> coalesced to 1 access (1 seek) per disk.
	env := sim.NewEnv()
	a := NewArray(env, 2, 64<<10, Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	env.Process("t", func(p *sim.Proc) {
		awaitAccess(p, a, 0, 1<<20, false)
	})
	env.Run()
	for i, d := range a.disks {
		if d.Seeks != 1 {
			t.Errorf("disk%d seeks = %d, want 1 (coalesced)", i, d.Seeks)
		}
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 2, 1024, HighPoint2008)
	env.Process("t", func(p *sim.Proc) {
		awaitAccess(p, a, 0, 0, false)
		if p.Now() != 0 {
			t.Error("zero-size access advanced time")
		}
	})
	env.Run()
}

// TestArrayOverlappingRequestsOrder pins the event stream of a striped
// array under overlapping traffic: single-disk requests queued on disk 0
// so a striped request's join waits on it while the other members finish
// first, striped requests that start mid-stripe and wrap the members,
// one whose members all finish at the same instant, and both the task and
// the process entry points. Completion times and the dispatched event
// count are the stream's fingerprint; a change to how a striped request
// is run must keep both.
func TestArrayOverlappingRequestsOrder(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, 4, 64<<10, Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	const us = time.Microsecond
	reqs := []struct {
		start      sim.Duration
		addr, size int64
		write      bool
		process    bool
	}{
		{0, 0, 64 << 10, false, false},              // disk 0
		{0, 4 << 20, 32 << 10, false, true},         // disk 0, queued
		{0, 8 << 20, 16 << 10, true, false},         // disk 0, queued
		{0, 64 << 10, 256 << 10, false, false},      // members 1, 2, 3, then 0 behind the queue
		{0, 96 << 10, 8 << 10, true, true},          // disk 1, behind the striped chunk
		{5 * us, 100 << 10, 600 << 10, true, false}, // mid-stripe start, wraps to member 1 again
		{5 * us, 1 << 20, 64 << 10, false, true},    // one full stripe, disk 0
		{20 * time.Millisecond, 32 << 10, 1 << 20, false, true},
		{20 * time.Millisecond, 3 << 20, 4096, false, false},
		{21 * time.Millisecond, 190 << 10, 130 << 10, true, false}, // members 2, 3, 0
		{60 * time.Millisecond, 4 << 20, 256 << 10, false, false},  // idle members, one finish instant
		{60 * time.Millisecond, 8 << 20, 512 << 10, false, true},
	}
	done := make([]sim.Time, len(reqs))
	for i, r := range reqs {
		if r.process {
			env.Process("p", func(p *sim.Proc) {
				p.Sleep(r.start)
				awaitAccess(p, a, r.addr, r.size, r.write)
				done[i] = p.Now()
			})
			continue
		}
		env.StartTask("t", func(tk *sim.Task) {
			tk.Sleep(r.start, func() {
				a.AccessT(tk, r.addr, r.size, r.write, func() {
					done[i] = tk.Now()
					tk.End()
				})
			})
		})
	}
	env.Run()
	// Recorded from the helper-task implementation this stream replays.
	want := []sim.Time{1655360, 2983040, 4146880, 5802240, 1081920, 9768320,
		7457600, 24662400, 21040960, 26317760, 61655360, 63966080}
	if !slices.Equal(done, want) {
		t.Errorf("completion times\n got %v\nwant %v", done, want)
	}
	if got := env.EventsProcessed; got != 99 {
		t.Errorf("EventsProcessed = %d, want 99", got)
	}
}

// TestArrayStripedAccessAllocFree pins the striped path's zero-alloc
// contract: once the frame pools, the arms' queues and the event queue
// are warm, a batch of overlapping striped accesses allocates nothing,
// with the pools' poison mode on and off.
func TestArrayStripedAccessAllocFree(t *testing.T) {
	defer sim.SetPoison(sim.Poison())
	for _, poison := range []bool{false, true} {
		sim.SetPoison(poison)
		env := sim.NewEnv()
		a := NewHighPoint(env, HighPointDisks)
		ct := env.ContextTask("bench")
		const perRun = 16
		completed := 0
		k := func() { completed++ }
		run := func() {
			for i := int64(0); i < perRun; i++ {
				// Mid-stripe starts wrapping every member, and one
				// request per member pair.
				a.AccessT(ct, i*(3*HighPointStripe+4096), 9*HighPointStripe+512, i%2 == 0, k)
				a.AccessT(ct, i*HighPointStripe, 2*HighPointStripe, false, k)
			}
			env.Run()
		}
		run() // grow the frame pools, arm queues and event queue once
		completed = 0
		const runs = 20
		if avg := testing.AllocsPerRun(runs, run); avg != 0 {
			t.Errorf("poison %v: batch of %d striped accesses allocated %.2f times, want 0", poison, 2*perRun, avg)
		}
		// AllocsPerRun invokes run once to warm up, then runs times measured.
		if want := (runs + 1) * 2 * perRun; completed != want {
			t.Errorf("poison %v: completed %d accesses, want %d", poison, completed, want)
		}
	}
}
