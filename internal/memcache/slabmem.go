package memcache

import (
	"encoding/binary"
	"math"

	"imca/internal/blob"
)

// slabMemory is what a store that owns its value bytes keeps them in, and
// where each item's are (see newOwningStore). Slab page p is the range at
// p*slabPageSize, granted to a class in order as the store's alloced grows.
// A chunk never crosses a page: no chunk is larger than one.
type slabMemory struct {
	// mapped is one mapping of every page the store's limit allows, made
	// outside the collected heap (mapSlabs), or nil where the system gave
	// none; pages then holds each page granted, allocated on the heap when
	// it was, so a large limit costs nothing up front on either path.
	mapped []byte
	pages  [][]byte
	// chunks is a side array beside the store's entry arenas: chunks[k][j]
	// is the chunk offset of arena k's entry j. The entry itself stays the
	// simulated bank's 112 bytes.
	chunks [][]int64
	// Per slab class, where its free chunks are: slots heads the list of
	// freed ones (see free), and next is the first never used in the
	// class's newest page.
	slots, next []int64
}

// newOwningStore returns a store bounded like NewStore's that owns its
// value bytes, as memcached does: a stored value is copied into a chunk of
// its slab class's pages, and every read copies it out under the lock. The
// TCP daemon's store is one; a simulated bank's keeps blobs by reference.
func newOwningStore(limit int64, now func() int64) *Store {
	s := NewStore(limit, now)
	s.mem = &slabMemory{slots: make([]int64, len(s.classes)), next: make([]int64, len(s.classes))}
	if n := limit / slabPageSize * slabPageSize; n > 0 && n <= math.MaxInt {
		s.mem.mapped = mapSlabs(int(n))
	}
	return s
}

// grant makes the page at off, which the store has just granted to class
// ci, usable and ci's newest.
func (m *slabMemory) grant(ci int, off int64) {
	if m.mapped == nil {
		m.pages = append(m.pages, make([]byte, slabPageSize))
	}
	m.next[ci] = off
}

// chunk returns the n bytes at off.
func (m *slabMemory) chunk(off, n int64) []byte {
	if m.mapped != nil {
		return m.mapped[off : off+n : off+n]
	}
	page := m.pages[off/slabPageSize]
	off %= slabPageSize
	return page[off : off+n : off+n]
}

// chunkOf returns where entry i's chunk offset is kept.
func (m *slabMemory) chunkOf(i uint32) *int64 {
	i--
	return &m.chunks[i>>arenaShift][i&(maxArena-1)]
}

// take hands out one of class ci's free chunks, of size bytes each, which
// the store has just counted off the class's freeChunks: the slot freed
// last, else the next never used in the class's newest page.
func (m *slabMemory) take(ci int, size int64) int64 {
	if m.slots[ci] != 0 {
		off := m.slots[ci] - 1
		m.slots[ci] = int64(binary.LittleEndian.Uint64(m.chunk(off, 8)))
		return off
	}
	off := m.next[ci]
	m.next[ci] += size
	return off
}

// free puts the chunk at off on class ci's slot list, threaded through the
// free chunks' first bytes as memcached's is: each holds the next slot's
// offset plus one, 0 ending the list.
func (m *slabMemory) free(ci int32, off int64) {
	binary.LittleEndian.PutUint64(m.chunk(off, 8), uint64(m.slots[ci]))
	m.slots[ci] = off + 1
}

// release gives every page back, with every chunk in it.
func (m *slabMemory) release() error {
	mapped := m.mapped
	m.mapped, m.pages, m.chunks = nil, nil, nil
	clear(m.slots)
	clear(m.next)
	if mapped == nil {
		return nil
	}
	return unmapSlabs(mapped)
}

// copyOut copies v, a chunk's bytes, into memory the caller owns:
// *scratch, kept or not by bodyBuffer's rule, or a buffer of its own when
// scratch is nil.
func copyOut(v blob.Blob, scratch *[]byte) blob.Blob {
	var buf []byte
	if scratch != nil {
		buf = bodyBuffer(scratch, int(v.Len()))
	} else {
		buf = make([]byte, v.Len())
	}
	copy(buf, v.Bytes())
	return blob.FromBytes(buf)
}
