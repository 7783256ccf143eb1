package blob

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
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
		if n := a.numSegs(); (n == 0) != (a.Len() == 0) || (n <= 1) != (a.spill == nil) {
			t.Fatalf("trial %d: %d segments, %d bytes, spill %v: the inline invariant broke", trial, n, a.Len(), a.spill != nil)
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
		return a.spill == nil && b.spill == nil && a.Len() == b.Len() && a.first.data == nil && b.first.data == nil &&
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

// TestBlobSize pins the Blob value at 56 bytes: a segment inline and one
// pointer to the spill. Every cached item, page and message carries one.
func TestBlobSize(t *testing.T) {
	if got := unsafe.Sizeof(Blob{}); got != 56 {
		t.Errorf("Blob is %d bytes, want 56", got)
	}
}

// TestSpillIsOneAllocation: a blob that mixes k runs costs exactly one
// allocation, its spill, whether Concat builds it or Slice cuts it from
// another, for every k the bank's multi-block values reach.
func TestSpillIsOneAllocation(t *testing.T) {
	for k := 2; k <= 8; k++ {
		parts := make([]Blob, k)
		for i := range parts {
			parts[i] = FromBytes([]byte{byte('a' + i), byte('A' + i)})
		}
		var b Blob
		if got := testing.AllocsPerRun(100, func() { b = Concat(parts...) }); got != 1 {
			t.Errorf("Concat of %d byte-backed parts: %.0f allocations, want 1", k, got)
		}
		if b.numSegs() != k || b.Len() != int64(2*k) {
			t.Fatalf("Concat of %d parts: %d segments, %d bytes", k, b.numSegs(), b.Len())
		}
		if got := testing.AllocsPerRun(100, func() { _ = b.Slice(1, b.Len()-1) }); got != 1 {
			t.Errorf("Slice across %d segments: %.0f allocations, want 1", k, got)
		}
	}
}

// runBlobScript runs a script of blob operations against a []byte model of
// each blob's contents. The script is read five bytes at a time as (op,
// slot, a, b, c): FromBytes, Synthetic, Slice or Concat into one of four
// slots, or a Len or At probe of one. After every build the slot's Len,
// Bytes and segment shape must agree with the model.
func runBlobScript(t *testing.T, script []byte) {
	const slots, maxLen = 4, 4 << 10
	var blobs [slots]Blob
	var model [slots][]byte
	check := func(step, i int) {
		b, m := blobs[i], model[i]
		if b.Len() != int64(len(m)) {
			t.Fatalf("step %d: slot %d %v has Len %d, model %d bytes", step, i, b, b.Len(), len(m))
		}
		if !bytes.Equal(b.Bytes(), m) {
			t.Fatalf("step %d: slot %d %v: Bytes differ from the model", step, i, b)
		}
		n, sum := b.numSegs(), int64(0)
		for j := 0; j < n; j++ {
			if s := b.seg(j); s.n <= 0 || (s.data != nil && int64(len(s.data)) != s.n) {
				t.Fatalf("step %d: slot %d %v: segment %d holds %d bytes, says %d", step, i, b, j, len(s.data), s.n)
			}
			sum += b.seg(j).n
		}
		if sum != b.Len() || (n <= 1) != (b.spill == nil) {
			t.Fatalf("step %d: slot %d %v: %d segments of %d bytes, spill %v", step, i, b, n, sum, b.spill != nil)
		}
	}
	for step := 0; len(script) >= 5; step++ {
		op, slot, a, b, c := script[0]%6, int(script[1]%slots), script[2], script[3], script[4]
		script = script[5:]
		src, m := blobs[a%slots], model[a%slots]
		switch op {
		case 0:
			raw := make([]byte, b%40)
			for i := range raw {
				raw[i] = c + byte(i)*31
			}
			blobs[slot], model[slot] = FromBytes(raw), append([]byte(nil), raw...)
		case 1:
			// Four streams, zeros among them, at nearby offsets: windows
			// of one stream often abut, so Concat coalesces.
			seed, off, n := uint64(c%4), int64(a), int64(b%64)
			blobs[slot], model[slot] = Synthetic(seed, off, n), make([]byte, n)
			for i := range model[slot] {
				model[slot][i] = synthByte(seed, off+int64(i))
			}
		case 2:
			lo := int64(b) % (int64(len(m)) + 1)
			hi := lo + int64(c)%(int64(len(m))-lo+1)
			blobs[slot], model[slot] = src.Slice(lo, hi), m[lo:hi]
		case 3:
			parts, want := []Blob{src}, append([]byte(nil), m...)
			for i := 0; i < int(c%4); i++ {
				j := (int(b) + i) % slots
				parts, want = append(parts, blobs[j]), append(want, model[j]...)
			}
			if len(want) > maxLen {
				continue
			}
			blobs[slot], model[slot] = Concat(parts...), want
		case 4:
			if src.Len() != int64(len(m)) {
				t.Fatalf("step %d: slot %d has Len %d, model %d bytes", step, a%slots, src.Len(), len(m))
			}
			continue
		default:
			if len(m) > 0 {
				i := (int64(b)<<8 | int64(c)) % int64(len(m))
				if got := src.At(i); got != m[i] {
					t.Fatalf("step %d: slot %d %v: At(%d) = %#x, model %#x", step, a%slots, src, i, got, m[i])
				}
			}
			continue
		}
		check(step, slot)
	}
}

func FuzzBlobOps(f *testing.F) {
	f.Add([]byte{1, 0, 0, 40, 1, 1, 1, 40, 40, 1, 3, 2, 0, 1, 1, 2, 3, 2, 10, 50, 5, 3, 2, 0, 200})
	for seed := int64(1); seed <= 8; seed++ {
		script := make([]byte, 5*200)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(runBlobScript)
}
