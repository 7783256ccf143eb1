package memcache

import (
	"encoding/binary"
	"math"

	"imca/internal/blob"
)

// slotPages is memory cut into slots the way memcached cuts its slab pages
// into chunks: pages granted to classes one at a time, each class cutting
// slots of its one size from its newest page, and each class's freed slots
// threaded through their first eight bytes. The pages hold no pointers, so
// the collector never scans them. A store keeps its keys in one (keyPages),
// and a store that owns its value bytes its values in another (slabMemory).
type slotPages struct {
	// shift is log2 of the page size.
	shift uint
	// mapped is one mapping of every page, made outside the collected heap
	// (mapSlabs), or nil; pages then holds each page granted, allocated on
	// the heap when it was.
	mapped []byte
	pages  [][]byte
}

// slotList is where one class's free slots are: slots heads the list of
// freed ones (see free), and next is the first never used in the class's
// newest page. Each owner of a slotPages keeps one per class.
type slotList struct{ slots, next int64 }

// grant makes the page at off usable and l's class's newest.
func (m *slotPages) grant(l *slotList, off int64) {
	if m.mapped == nil {
		m.pages = append(m.pages, make([]byte, 1<<m.shift))
	}
	l.next = off
}

// at returns the n bytes at off.
func (m *slotPages) at(off, n int64) []byte {
	if m.mapped != nil {
		return m.mapped[off : off+n : off+n]
	}
	page := m.pages[off>>m.shift]
	off &= 1<<m.shift - 1
	return page[off : off+n : off+n]
}

// take hands out one of l's class's free slots, of size bytes each, which
// its owner has made sure there is: the slot freed last, else the next
// never used in the class's newest page.
func (m *slotPages) take(l *slotList, size int64) int64 {
	if l.slots != 0 {
		off := l.slots - 1
		l.slots = int64(binary.LittleEndian.Uint64(m.at(off, 8)))
		return off
	}
	off := l.next
	l.next += size
	return off
}

// free puts the slot at off on l, threaded through the free slots' first
// bytes as memcached's is: each holds the next slot's offset plus one, 0
// ending the list.
func (m *slotPages) free(l *slotList, off int64) {
	binary.LittleEndian.PutUint64(m.at(off, 8), uint64(l.slots))
	l.slots = off + 1
}

// Keys live in keyPages: slots in 8-byte steps up to MaxKeyLen, cut from
// 16 KB heap pages, small because each slot size a store uses costs it a
// page. An entry names its key's slot by its offset in keySlotSize units,
// so four bytes address 32 GB of keys.
const (
	keySlotSize  = 8
	keyPageShift = 14
	keyClasses   = (MaxKeyLen + keySlotSize - 1) / keySlotSize
)

// keyPages is the memory a store copies every key into, with each class's
// list inline, so a new store allocates nothing for them.
type keyPages struct {
	slotPages
	lists [keyClasses]slotList
}

// keyClass is the slot class of a key of n bytes, 1 <= n <= MaxKeyLen.
func keyClass(n int) int { return (n - 1) / keySlotSize }

// putKey copies key, a valid key, into a slot and returns the slot's offset in
// keySlotSize units.
func putKey[K string | []byte](m *keyPages, key K) uint32 {
	ci := keyClass(len(key))
	l, size := &m.lists[ci], int64(ci+1)*keySlotSize
	// With no slot freed, the class needs a page when its newest is used
	// up, or it has none: next is then at a page's start or too close to
	// its end (pages are granted only to be cut from at once).
	if in := l.next & (1<<keyPageShift - 1); l.slots == 0 && (in == 0 || in+size > 1<<keyPageShift) {
		m.grant(l, int64(len(m.pages))<<keyPageShift)
	}
	off := m.take(l, size)
	copy(m.at(off, int64(len(key))), key)
	return uint32(off / keySlotSize)
}

// key returns the n bytes of the key in slot slot.
func (m *keyPages) key(slot uint32, n int) []byte {
	return m.at(int64(slot)*keySlotSize, int64(n))
}

// release puts the slot of a key of n bytes back on its class's list.
func (m *keyPages) release(slot uint32, n int) {
	m.free(&m.lists[keyClass(n)], int64(slot)*keySlotSize)
}

// reset lets every key page go.
func (m *keyPages) reset() {
	m.pages = nil
	clear(m.lists[:])
}

// slabMemory is what a store that owns its value bytes keeps them in, and
// where each item's are (see newOwningStore). Slab page p is the range at
// p*slabPageSize, granted to a class in order as the store's alloced grows;
// the store counts each class's free chunks (slabClass.freeChunks), so a
// class takes a chunk only when it has one. A chunk never crosses a page: no
// chunk is larger than one.
type slabMemory struct {
	slotPages
	lists []slotList // per slab class
	// chunks is a side array beside the store's entry arenas: chunks[k][j]
	// is the chunk offset of arena k's entry j. The entry itself stays the
	// simulated bank's 80 bytes.
	chunks [][]int64
}

// newOwningStore returns a store bounded like NewStore's that owns its
// value bytes, as memcached does: a stored value is copied into a chunk of
// its slab class's pages, and every read copies it out under the lock. The
// TCP daemon's store is one; a simulated bank's keeps blobs by reference.
func newOwningStore(limit int64, now func() int64) *Store {
	s := NewStore(limit, now)
	s.mem = &slabMemory{slotPages: slotPages{shift: slabPageShift}, lists: make([]slotList, len(s.classes))}
	if n := limit / slabPageSize * slabPageSize; n > 0 && n <= math.MaxInt {
		s.mem.mapped = mapSlabs(int(n))
	}
	return s
}

// chunkOf returns where entry i's chunk offset is kept.
func (m *slabMemory) chunkOf(i uint32) *int64 {
	i--
	return &m.chunks[i>>arenaShift][i&(maxArena-1)]
}

// release gives every page back, with every chunk in it.
func (m *slabMemory) release() error {
	mapped := m.mapped
	m.mapped, m.pages, m.chunks = nil, nil, nil
	clear(m.lists)
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
