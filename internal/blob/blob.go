// Package blob represents file and cache payloads that may be either real
// bytes or synthetic descriptors.
//
// Storage and network simulations frequently move gigabytes of file data
// whose exact contents are irrelevant to the experiment. A synthetic Blob
// records only (seed, offset, length): every byte is a pure function of the
// seed and its absolute offset, so payloads can be sliced, concatenated,
// shipped, cached, and verified without ever allocating the data. Byte-backed
// Blobs carry literal contents for correctness tests and for the real TCP
// memcached server. The two kinds mix freely inside one Blob.
//
// A Blob value is 56 bytes of host memory wherever it is kept — a cached
// item, a page, a message. That is the simulator's cost, not the modelled
// system's: what a cached item costs memcached is its key, its Len and
// memcache's itemOverhead, whatever the Blob behind it takes.
package blob

import (
	"fmt"
	"unsafe"
)

// segment is a contiguous run of n bytes of payload, either byte-backed
// (data != nil, len(data) == n) or synthetic (generated from seed at
// absolute offset off).
type segment struct {
	data []byte
	seed uint64
	off  int64
	n    int64
}

func (s segment) at(i int64) byte {
	if s.data != nil {
		return s.data[i]
	}
	return synthByte(s.seed, s.off+i)
}

func (s segment) slice(from, to int64) segment {
	if s.data != nil {
		return segment{data: s.data[from:to], n: to - from}
	}
	return segment{seed: s.seed, off: s.off + from, n: to - from}
}

// Blob is an immutable sequence of payload bytes. The zero Blob is empty.
//
// The first segment lives inline in the value, so a single-segment blob —
// every synthetic block, every FromBytes — is a plain value that is built,
// sliced and copied without touching the heap. The blob is non-empty
// exactly when first.n > 0; no segment is ever empty. Only blobs that
// really mix runs (a byte-backed header before synthetic data, two
// different streams) carry a spill: one allocation, a header segment
// followed by segments 1, 2, …, so that spill[i] is segment i. The header's
// off is the number of segments and its n the blob's total length.
type Blob struct {
	first segment
	spill *segment
}

// spilled returns the spill, header included, as a slice.
func (b *Blob) spilled() []segment { return unsafe.Slice(b.spill, b.spill.off) }

// numSegs returns the number of segments.
func (b *Blob) numSegs() int {
	switch {
	case b.spill != nil:
		return int(b.spill.off)
	case b.first.n == 0:
		return 0
	}
	return 1
}

// seg returns segment i, 0 <= i < numSegs.
func (b *Blob) seg(i int) *segment {
	if i == 0 {
		return &b.first
	}
	return &b.spilled()[i]
}

// builder assembles a fresh blob segment by segment. Blobs share spills by
// value, so a spill is written only here, before the blob is handed out.
type builder struct {
	out  Blob
	n    int64
	segs []segment // the spill being filled, header first; nil until segment 1
}

// push appends the non-empty segment s; at most room segments follow it,
// so the spill is allocated once, at the second segment.
func (w *builder) push(s segment, room int) {
	w.n += s.n
	if w.out.first.n == 0 {
		w.out.first = s
		return
	}
	if w.segs == nil {
		w.segs = make([]segment, 1, 2+room)
	}
	w.segs = append(w.segs, s)
}

// last returns the segment pushed last; the blob must not be empty.
func (w *builder) last() *segment {
	if w.segs == nil {
		return &w.out.first
	}
	return &w.segs[len(w.segs)-1]
}

// blob finishes the blob: the spill's header takes the count and length.
func (w *builder) blob() Blob {
	if w.segs != nil {
		w.segs[0] = segment{off: int64(len(w.segs)), n: w.n}
		w.out.spill = &w.segs[0]
	}
	return w.out
}

// FromBytes returns a byte-backed Blob. The caller must not mutate b after
// the call.
func FromBytes(b []byte) Blob {
	if len(b) == 0 {
		return Blob{}
	}
	return Blob{first: segment{data: b, n: int64(len(b))}}
}

// FromString returns a byte-backed Blob with the bytes of s.
func FromString(s string) Blob { return FromBytes([]byte(s)) }

// Zeros returns a content-free Blob of n zero bytes (seed 0 is the
// all-zeros stream). File systems use it for holes.
func Zeros(n int64) Blob { return Synthetic(0, 0, n) }

// Synthetic returns a content-free Blob of n bytes whose contents are a
// pure function of (seed, absolute offset). Two Synthetic blobs with the
// same seed describe windows into the same infinite stream, so
// Synthetic(s, 0, 100).Slice(25, 75) equals Synthetic(s, 25, 50). Seed 0 is
// reserved for the all-zeros stream.
func Synthetic(seed uint64, off, n int64) Blob {
	if n < 0 {
		panic("blob: negative length")
	}
	if n == 0 {
		return Blob{}
	}
	return Blob{first: segment{seed: seed, off: off, n: n}}
}

// Len returns the total number of bytes.
func (b Blob) Len() int64 {
	if b.spill != nil {
		return b.spill.n
	}
	return b.first.n
}

// IsSynthetic reports whether the blob contains no byte-backed segments
// (an empty blob is synthetic).
func (b Blob) IsSynthetic() bool {
	for i, n := 0, b.numSegs(); i < n; i++ {
		if b.seg(i).data != nil {
			return false
		}
	}
	return true
}

// At returns the byte at index i.
func (b Blob) At(i int64) byte {
	if i < 0 || i >= b.Len() {
		panic(fmt.Sprintf("blob: index %d out of range [0,%d)", i, b.Len()))
	}
	for j, n := 0, b.numSegs(); j < n; j++ {
		s := b.seg(j)
		if i < s.n {
			return s.at(i)
		}
		i -= s.n
	}
	panic("blob: corrupt segment lengths")
}

// Slice returns the sub-blob [from, to).
func (b Blob) Slice(from, to int64) Blob {
	if from < 0 || to < from || to > b.Len() {
		panic(fmt.Sprintf("blob: slice [%d,%d) out of range [0,%d]", from, to, b.Len()))
	}
	if from == to {
		return Blob{}
	}
	if b.spill == nil {
		return Blob{first: b.first.slice(from, to)}
	}
	var w builder
	pos := int64(0)
	for i, n := 0, b.numSegs(); i < n && pos < to; i++ {
		s := b.seg(i)
		if lo, hi := max(from-pos, 0), min(to-pos, s.n); lo < hi {
			w.push(s.slice(lo, hi), n-1-i)
		}
		pos += s.n
	}
	return w.blob()
}

// Concat returns the concatenation of parts. Adjacent synthetic segments
// from the same stream are coalesced, so reassembling consecutive windows
// of one stream yields a single-segment blob again — without allocating.
// A result that does need a spill gets it in one allocation, sized for the
// segments still to come.
func Concat(parts ...Blob) Blob {
	left := 0 // input segments not yet consumed: the spill's upper bound
	for i := range parts {
		left += parts[i].numSegs()
	}
	var w builder
	for i := range parts {
		p := &parts[i]
		for j, n := 0, p.numSegs(); j < n; j++ {
			s := p.seg(j)
			left--
			if w.n > 0 && s.data == nil {
				if last := w.last(); last.data == nil && last.seed == s.seed && last.off+last.n == s.off {
					last.n += s.n
					w.n += s.n
					continue
				}
			}
			w.push(*s, left)
		}
	}
	return w.blob()
}

// Bytes materializes the blob. Synthetic segments are generated; the result
// is freshly allocated except for a single byte-backed segment, which is
// returned as-is.
func (b Blob) Bytes() []byte {
	if b.spill == nil && b.first.data != nil {
		return b.first.data
	}
	out := make([]byte, b.Len())
	pos := 0
	for i, n := 0, b.numSegs(); i < n; i++ {
		s := b.seg(i)
		if s.data != nil {
			pos += copy(out[pos:], s.data)
			continue
		}
		synthFill(out[pos:pos+int(s.n)], s.seed, s.off)
		pos += int(s.n)
	}
	return out
}

// Equal reports whether a and b have identical contents.
func (b Blob) Equal(c Blob) bool {
	if b.Len() != c.Len() {
		return false
	}
	for i := int64(0); i < b.Len(); i++ {
		if b.At(i) != c.At(i) {
			return false
		}
	}
	return true
}

// Checksum returns a 64-bit FNV-1a digest of the contents.
func (b Blob) Checksum() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for j, n := 0, b.numSegs(); j < n; j++ {
		s := b.seg(j)
		for i := int64(0); i < s.n; i++ {
			h ^= uint64(s.at(i))
			h *= prime64
		}
	}
	return h
}

// String describes the blob shape for diagnostics (not its contents).
func (b Blob) String() string {
	kind := "bytes"
	if b.IsSynthetic() {
		kind = "synthetic"
	}
	return fmt.Sprintf("blob{%s, %d bytes, %d segs}", kind, b.Len(), b.numSegs())
}

// synthByte is the content function: a splitmix64-style mix of the seed and
// the 64-bit word index, selecting one byte of the mixed word. Seed 0 is
// the all-zeros stream.
func synthByte(seed uint64, pos int64) byte {
	if seed == 0 {
		return 0
	}
	w := mix(seed ^ uint64(pos>>3)*0x9e3779b97f4a7c15)
	return byte(w >> (uint(pos&7) * 8))
}

func synthFill(dst []byte, seed uint64, off int64) {
	i := 0
	if seed == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	for i < len(dst) {
		pos := off + int64(i)
		if pos&7 == 0 && i+8 <= len(dst) {
			// Fast path: fill a whole aligned word.
			w := mix(seed ^ uint64(pos>>3)*0x9e3779b97f4a7c15)
			for j := 0; j < 8; j++ {
				dst[i+j] = byte(w >> (uint(j) * 8))
			}
			i += 8
			continue
		}
		dst[i] = synthByte(seed, pos)
		i++
	}
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
