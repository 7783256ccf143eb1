package core

import (
	"fmt"
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// FuzzDecodeStat holds the stat codec to its contract from both ends. Every
// stat a client serves from the bank goes through decodeStatInto, and the
// bank is shared memory any client can write: arbitrary bytes must never
// panic, and what the decoder accepts must be a fixed point — re-encoding
// the decoded Stat and decoding again gives the same Stat (the bytes need
// not round-trip: byte 40 is only compared with 1). A matching and a
// non-matching path hint must agree, since the hint only decides whose
// string Path aliases. From the other end, any Stat whose path fits the
// 16-bit length prefix decodes back to itself, and one that does not is
// refused rather than decoded wrong.
//
// The seeds below plus testdata/fuzz/FuzzDecodeStat replay in plain `go test`.
func FuzzDecodeStat(f *testing.F) {
	var seeds statSlab
	file := seeds.encode(&gluster.Stat{Path: "/a/b/c", Ino: 42, Size: 1 << 40, Atime: 1, Mtime: 2, Ctime: 3})
	dir := seeds.encode(&gluster.Stat{Path: "/d", IsDir: true})
	odd := append([]byte(nil), file...)
	odd[40] = 2 // neither 0 nor 1: decodes as a file, re-encodes as 0
	f.Add(file, uint64(42), int64(1<<40), int64(1), int64(2), int64(3), false, "/a/b/c")
	f.Add(dir, uint64(0), int64(0), int64(0), int64(0), int64(0), true, "/d")
	f.Add(odd, uint64(1), int64(-1), int64(-1), int64(-1), int64(-1), false, "")
	f.Add(file[:statFixedLen], uint64(7), int64(7), int64(7), int64(7), int64(7), true, "/short")
	f.Add(file[:len(file)-1], uint64(0), int64(0), int64(0), int64(0), int64(0), false, "/truncated")
	f.Add([]byte("junk"), ^uint64(0), int64(1)<<62, int64(0), int64(0), int64(0), false, "/junk")

	f.Fuzz(func(t *testing.T, data []byte, ino uint64, size, atime, mtime, ctime int64, isDir bool, path string) {
		var slab statSlab
		var st gluster.Stat
		if err := decodeStatInto(&st, blob.FromBytes(data), ""); err == nil {
			var again, hinted, mishinted gluster.Stat
			if err := decodeStatInto(&again, blob.FromBytes(slab.encode(&st)), ""); err != nil || again != st {
				t.Errorf("decoded %+v, but its re-encoding decodes to %+v, %v", st, again, err)
			}
			if err := decodeStatInto(&hinted, blob.FromBytes(data), st.Path); err != nil || hinted != st {
				t.Errorf("matching hint: %+v, %v; want %+v", hinted, err, st)
			}
			if err := decodeStatInto(&mishinted, blob.FromBytes(data), st.Path+"x"); err != nil || mishinted != st {
				t.Errorf("non-matching hint: %+v, %v; want %+v", mishinted, err, st)
			}
		}

		want := gluster.Stat{Path: path, Ino: ino, Size: size, IsDir: isDir,
			Atime: sim.Time(atime), Mtime: sim.Time(mtime), Ctime: sim.Time(ctime)}
		var got gluster.Stat
		err := decodeStatInto(&got, blob.FromBytes(slab.encode(&want)), "")
		switch {
		case len(path) > 0xFFFF:
			if err == nil {
				t.Errorf("a %d-byte path overflows the length prefix yet decoded to %+v", len(path), got)
			}
		case err != nil || got != want:
			t.Errorf("decode(encode(%+v)) = %+v, %v", want, got, err)
		}
	})
}

// TestStatSlabKeepsEveryEncoding: a pool's stat encodings are cut from its
// slab and handed to the bank by reference, so none may be rewritten when
// the slab runs out and a new one starts. Past several refills, every
// encoding cut directly and every stat pushed through the pool still decodes
// to its own stat, each cut's capacity is its length (a blob operation that
// appends cannot reach its neighbour), and pushStat allocates at most one
// slab per slab's worth of stats.
func TestStatSlabKeepsEveryEncoding(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	pp, ct := &r.smcache.pushes, r.env.ContextTask("pusher")
	stat := func(i int) gluster.Stat {
		return gluster.Stat{Path: fmt.Sprintf("/slab/f%04d", i), Ino: uint64(i), Size: int64(i) << 20,
			Atime: sim.Time(i), Mtime: sim.Time(2 * i), Ctime: sim.Time(3 * i), IsDir: i%7 == 0}
	}
	perSlab := statSlabSize / (statFixedLen + len(stat(0).Path))
	const slabs = 3

	// Cut directly, past refills.
	cuts := make([][]byte, slabs*perSlab)
	for i := range cuts {
		st := stat(i)
		cuts[i] = pp.slab.encode(&st)
	}
	// Pushed through the pool, past more refills.
	n, pushes := len(cuts), slabs*perSlab
	var next func()
	next = func() {
		if n < len(cuts)+pushes {
			st := stat(n)
			n++
			pp.pushStat(ct, st.Path, &st, 0, next)
		}
	}
	next()
	r.env.Run()

	for i, b := range cuts {
		var got gluster.Stat
		if err := decodeStatInto(&got, blob.FromBytes(b), ""); err != nil || got != stat(i) {
			t.Errorf("cut %d decodes to %+v, %v; want %+v", i, got, err, stat(i))
		}
		if cap(b) != len(b) {
			t.Errorf("cut %d has capacity %d for %d bytes", i, cap(b), len(b))
		}
	}
	for i := len(cuts); i < n; i++ {
		want := stat(i)
		var value blob.Blob
		found := false
		for _, m := range r.mcds {
			if v, ok := m.Store().Peek(statKey(want.Path)); ok {
				value, found = v, true
			}
		}
		var got gluster.Stat
		if err := decodeStatInto(&got, value, want.Path); !found || err != nil || got != want {
			t.Errorf("pushed stat %d: in bank %v, decodes to %+v, %v; want %+v", i, found, got, err, want)
		}
	}
	if got := r.smcache.Stats.StatPushes; got != uint64(pushes) {
		t.Errorf("%d stat pushes landed, want %d", got, pushes)
	}

	// One slab's worth of pushes of one path, whose entry each replaces.
	st, left := stat(1), 0
	var again func()
	again = func() {
		if left > 0 {
			left--
			pp.pushStat(ct, st.Path, &st, 0, again)
		}
	}
	run := func() {
		left = perSlab
		again()
		r.env.Run()
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg > 1 {
		t.Errorf("%d stat pushes allocated %.0f times, want at most one slab", perSlab, avg)
	}
}
