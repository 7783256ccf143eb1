package core

import (
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
	file := encodeStat(&gluster.Stat{Path: "/a/b/c", Ino: 42, Size: 1 << 40, Atime: 1, Mtime: 2, Ctime: 3}).Bytes()
	dir := encodeStat(&gluster.Stat{Path: "/d", IsDir: true}).Bytes()
	odd := append([]byte(nil), file...)
	odd[40] = 2 // neither 0 nor 1: decodes as a file, re-encodes as 0
	f.Add(file, uint64(42), int64(1<<40), int64(1), int64(2), int64(3), false, "/a/b/c")
	f.Add(dir, uint64(0), int64(0), int64(0), int64(0), int64(0), true, "/d")
	f.Add(odd, uint64(1), int64(-1), int64(-1), int64(-1), int64(-1), false, "")
	f.Add(file[:statFixedLen], uint64(7), int64(7), int64(7), int64(7), int64(7), true, "/short")
	f.Add(file[:len(file)-1], uint64(0), int64(0), int64(0), int64(0), int64(0), false, "/truncated")
	f.Add([]byte("junk"), ^uint64(0), int64(1)<<62, int64(0), int64(0), int64(0), false, "/junk")

	f.Fuzz(func(t *testing.T, data []byte, ino uint64, size, atime, mtime, ctime int64, isDir bool, path string) {
		var st gluster.Stat
		if err := decodeStatInto(&st, blob.FromBytes(data), ""); err == nil {
			var again, hinted, mishinted gluster.Stat
			if err := decodeStatInto(&again, encodeStat(&st), ""); err != nil || again != st {
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
		got, err := decodeStat(encodeStat(&want))
		switch {
		case len(path) > 0xFFFF:
			if err == nil {
				t.Errorf("a %d-byte path overflows the length prefix yet decoded to %+v", len(path), got)
			}
		case err != nil || *got != want:
			t.Errorf("decode(encode(%+v)) = %+v, %v", want, got, err)
		}
	})
}
