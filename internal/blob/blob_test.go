package blob

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyBlob(t *testing.T) {
	var b Blob
	if b.Len() != 0 {
		t.Errorf("Len = %d, want 0", b.Len())
	}
	if !b.IsSynthetic() {
		t.Error("empty blob should report synthetic")
	}
	if got := b.Bytes(); len(got) != 0 {
		t.Errorf("Bytes = %v, want empty", got)
	}
}

func TestFromBytesRoundTrip(t *testing.T) {
	src := []byte("hello, world")
	b := FromBytes(src)
	if b.Len() != int64(len(src)) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(src))
	}
	if !bytes.Equal(b.Bytes(), src) {
		t.Errorf("Bytes = %q, want %q", b.Bytes(), src)
	}
	if b.IsSynthetic() {
		t.Error("byte-backed blob reported synthetic")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(7, 100, 64).Bytes()
	b := Synthetic(7, 100, 64).Bytes()
	if !bytes.Equal(a, b) {
		t.Error("synthetic content not deterministic")
	}
	c := Synthetic(8, 100, 64).Bytes()
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical content")
	}
}

func TestSyntheticWindowIdentity(t *testing.T) {
	// Slicing a synthetic blob equals a synthetic blob at the shifted offset.
	whole := Synthetic(42, 0, 1000)
	sub := whole.Slice(137, 400)
	direct := Synthetic(42, 137, 400-137)
	if !sub.Equal(direct) {
		t.Error("slice of synthetic != synthetic at shifted offset")
	}
}

func TestSyntheticUnalignedMatchesAt(t *testing.T) {
	// Unaligned fills must agree with byte-at-a-time generation.
	for _, off := range []int64{0, 1, 3, 7, 8, 9, 1021} {
		b := Synthetic(5, off, 37)
		got := b.Bytes()
		for i := int64(0); i < b.Len(); i++ {
			if got[i] != b.At(i) {
				t.Fatalf("off=%d: Bytes()[%d]=%x, At=%x", off, i, got[i], b.At(i))
			}
		}
	}
}

func TestSliceOfBytes(t *testing.T) {
	b := FromString("abcdefghij")
	s := b.Slice(2, 5)
	if string(s.Bytes()) != "cde" {
		t.Errorf("Slice = %q, want cde", s.Bytes())
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSliceEmptyAndFull(t *testing.T) {
	b := FromString("xyz")
	if b.Slice(1, 1).Len() != 0 {
		t.Error("empty slice has nonzero length")
	}
	if string(b.Slice(0, 3).Bytes()) != "xyz" {
		t.Error("full slice differs from original")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	b := FromString("xyz")
	for _, r := range [][2]int64{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", r[0], r[1])
				}
			}()
			b.Slice(r[0], r[1])
		}()
	}
}

func TestConcatMixed(t *testing.T) {
	b := Concat(FromString("head-"), Synthetic(3, 0, 10), FromString("-tail"))
	if b.Len() != 20 {
		t.Fatalf("Len = %d, want 20", b.Len())
	}
	got := b.Bytes()
	if string(got[:5]) != "head-" || string(got[15:]) != "-tail" {
		t.Errorf("Concat contents wrong: %q", got)
	}
	if !bytes.Equal(got[5:15], Synthetic(3, 0, 10).Bytes()) {
		t.Error("middle synthetic section wrong")
	}
	if b.IsSynthetic() {
		t.Error("mixed blob reported synthetic")
	}
}

func TestConcatCoalescesAdjacentSynthetic(t *testing.T) {
	a := Synthetic(9, 0, 100)
	b := Synthetic(9, 100, 50)
	c := Concat(a, b)
	if c.numSegs() != 1 {
		t.Errorf("adjacent synthetic segments not coalesced: %d segs", c.numSegs())
	}
	if !c.Equal(Synthetic(9, 0, 150)) {
		t.Error("coalesced content differs")
	}
}

func TestConcatDoesNotCoalesceDifferentStreams(t *testing.T) {
	c := Concat(Synthetic(1, 0, 10), Synthetic(2, 10, 10))
	if c.numSegs() != 2 {
		t.Errorf("segments with different seeds coalesced: %d segs", c.numSegs())
	}
}

func TestSliceAcrossSegments(t *testing.T) {
	b := Concat(FromString("0123"), FromString("4567"), FromString("89"))
	if got := string(b.Slice(2, 9).Bytes()); got != "2345678" {
		t.Errorf("cross-segment slice = %q, want 2345678", got)
	}
}

func TestChecksumMatchesContent(t *testing.T) {
	a := FromString("identical")
	b := Concat(FromString("ident"), FromString("ical"))
	if a.Checksum() != b.Checksum() {
		t.Error("checksum differs for identical content in different segmentations")
	}
	if a.Checksum() == FromString("different!").Checksum() {
		t.Error("checksum collision on different content (unlikely)")
	}
}

func TestChecksumSyntheticEqualsBytes(t *testing.T) {
	s := Synthetic(11, 33, 500)
	m := FromBytes(s.Bytes())
	if s.Checksum() != m.Checksum() {
		t.Error("synthetic checksum differs from materialized checksum")
	}
}

func TestEqualMixedRepresentations(t *testing.T) {
	s := Synthetic(21, 0, 64)
	if !s.Equal(FromBytes(s.Bytes())) {
		t.Error("synthetic != its own materialization")
	}
}

// Property: for any split points, slicing then concatenating reproduces the
// original content.
func TestPropertySliceConcatIdentity(t *testing.T) {
	f := func(seed uint64, rawLen uint16, a, b uint16) bool {
		n := int64(rawLen%512) + 1
		lo := int64(a) % n
		hi := lo + int64(b)%(n-lo+1)
		orig := Synthetic(seed, 0, n)
		re := Concat(orig.Slice(0, lo), orig.Slice(lo, hi), orig.Slice(hi, n))
		return re.Equal(orig) && re.Checksum() == orig.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: At agrees with Bytes at every index for random mixed blobs.
func TestPropertyAtAgreesWithBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var parts []Blob
		for i := 0; i < 1+rng.Intn(4); i++ {
			if rng.Intn(2) == 0 {
				raw := make([]byte, rng.Intn(64))
				rng.Read(raw)
				parts = append(parts, FromBytes(raw))
			} else {
				parts = append(parts, Synthetic(rng.Uint64(), int64(rng.Intn(100)), int64(rng.Intn(64))))
			}
		}
		b := Concat(parts...)
		m := b.Bytes()
		for i := int64(0); i < b.Len(); i++ {
			if m[i] != b.At(i) {
				t.Fatalf("trial %d: Bytes[%d] != At(%d)", trial, i, i)
			}
		}
	}
}

// Property: slicing a synthetic window twice composes offsets correctly.
func TestPropertySliceComposition(t *testing.T) {
	f := func(seed uint64, o uint16, a, b uint8) bool {
		n := int64(300)
		lo := int64(a) % n
		hi := lo + int64(b)%(n-lo+1)
		w := Synthetic(seed, int64(o), n)
		return w.Slice(lo, hi).Equal(Synthetic(seed, int64(o)+lo, hi-lo))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSyntheticFill64K(b *testing.B) {
	blob := Synthetic(1, 0, 64<<10)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		_ = blob.Bytes()
	}
}

func BenchmarkSliceSynthetic(b *testing.B) {
	blob := Synthetic(1, 0, 1<<30)
	for i := 0; i < b.N; i++ {
		_ = blob.Slice(int64(i)%(1<<20), int64(i)%(1<<20)+4096)
	}
}

// Property: on seeded random mixes of synthetic and byte-backed segments,
// every operation agrees with the materialised bytes — Slice, Concat, Equal,
// Checksum and Reader see one content whatever the segment layout behind
// it, inline or spilled.
func TestPropertyMixedBlobsAgreeWithBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mixed := func() Blob {
		var parts []Blob
		for i, n := 0, rng.Intn(5); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				raw := make([]byte, rng.Intn(48))
				rng.Read(raw)
				parts = append(parts, FromBytes(raw))
			case 1:
				parts = append(parts, Synthetic(rng.Uint64()|1, int64(rng.Intn(100)), int64(rng.Intn(48))))
			default:
				// Two windows of one stream, sometimes adjacent: the
				// coalescing path next to the spilling one.
				seed, off, n := rng.Uint64()|1, int64(rng.Intn(100)), int64(1+rng.Intn(24))
				gap := int64(rng.Intn(2))
				parts = append(parts, Synthetic(seed, off, n), Synthetic(seed, off+n+gap, n))
			}
		}
		return Concat(parts...)
	}
	for trial := 0; trial < 300; trial++ {
		a, b := mixed(), mixed()
		am, bm := a.Bytes(), b.Bytes()
		if int64(len(am)) != a.Len() {
			t.Fatalf("trial %d: Bytes has %d bytes, Len says %d", trial, len(am), a.Len())
		}
		if n := a.numSegs(); (n == 0) != (a.Len() == 0) || (n <= 1) != (a.rest == nil) {
			t.Fatalf("trial %d: %d segments, %d bytes, spill %v: the inline invariant broke", trial, n, a.Len(), a.rest != nil)
		}
		lo := int64(0)
		if a.Len() > 0 {
			lo = rng.Int63n(a.Len() + 1)
		}
		hi := lo + rng.Int63n(a.Len()-lo+1)
		if got := a.Slice(lo, hi).Bytes(); !bytes.Equal(got, am[lo:hi]) {
			t.Fatalf("trial %d: Slice(%d,%d) of %v differs from the bytes", trial, lo, hi, a)
		}
		if got := Concat(a, b).Bytes(); !bytes.Equal(got, append(append([]byte{}, am...), bm...)) {
			t.Fatalf("trial %d: Concat(%v, %v) differs from the bytes", trial, a, b)
		}
		if re := Concat(a.Slice(0, lo), a.Slice(lo, hi), a.Slice(hi, a.Len())); !re.Equal(a) || re.Checksum() != a.Checksum() {
			t.Fatalf("trial %d: slicing %v at %d,%d and concatenating changed it", trial, a, lo, hi)
		}
		if a.Equal(b) != bytes.Equal(am, bm) {
			t.Fatalf("trial %d: Equal(%v, %v) disagrees with the bytes", trial, a, b)
		}
		if !a.Equal(FromBytes(am)) && a.Len() > 0 {
			t.Fatalf("trial %d: %v != its own materialisation", trial, a)
		}
		if a.Checksum() != FromBytes(am).Checksum() {
			t.Fatalf("trial %d: Checksum of %v differs from its bytes'", trial, a)
		}
	}
}

// TestSingleSegmentBlobsAreValues: the shapes the data path is made of —
// a synthetic block, a window of one, adjacent windows put back together, a
// byte buffer — stay single-segment values, structurally equal to the blob
// built directly, and cost no allocation to make.
func TestSingleSegmentBlobsAreValues(t *testing.T) {
	// same reports whether two blobs are the same single synthetic value.
	same := func(a, b Blob) bool {
		return a.rest == nil && b.rest == nil && a.n == b.n && a.first.data == nil && b.first.data == nil &&
			a.first.seed == b.first.seed && a.first.off == b.first.off && a.first.n == b.first.n
	}
	got := Synthetic(7, 0, 100).Slice(25, 75)
	want := Synthetic(7, 25, 50)
	if !same(got, want) {
		t.Errorf("Synthetic(7,0,100).Slice(25,75) = %+v, want the value %+v", got, want)
	}
	whole := Synthetic(7, 0, 8192)
	re := Concat(whole.Slice(0, 2048), whole.Slice(2048, 4096), whole.Slice(4096, 8192))
	if !same(re, whole) {
		t.Errorf("adjacent windows reassembled to %+v, want the value %+v", re, whole)
	}
	raw := []byte("0123456789")
	var sink Blob
	if avg := testing.AllocsPerRun(100, func() {
		sink = Synthetic(7, 0, 8192)
		sink = sink.Slice(100, 4000)
		sink = Concat(whole.Slice(0, 2048), whole.Slice(2048, 4096))
		sink = Zeros(512)
		sink = FromBytes(raw).Slice(2, 8)
	}); avg != 0 {
		t.Errorf("building single-segment blobs allocated %.0f times, want 0", avg)
	}
	if string(sink.Bytes()) != "234567" {
		t.Errorf("sliced byte blob = %q", sink.Bytes())
	}
}
