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
	// Per class, where its free slots are: slots heads the list of freed
	// ones (see free), and next is the first never used in the class's
	// newest page.
	slots, next []int64
}

// grant makes the page at off usable and class ci's newest.
func (m *slotPages) grant(ci int, off int64) {
	if m.mapped == nil {
		m.pages = append(m.pages, make([]byte, 1<<m.shift))
	}
	m.next[ci] = off
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

// take hands out one of class ci's free slots, of size bytes each, which
// its owner has made sure there is: the slot freed last, else the next
// never used in the class's newest page.
func (m *slotPages) take(ci int, size int64) int64 {
	if m.slots[ci] != 0 {
		off := m.slots[ci] - 1
		m.slots[ci] = int64(binary.LittleEndian.Uint64(m.at(off, 8)))
		return off
	}
	off := m.next[ci]
	m.next[ci] += size
	return off
}

// free puts the slot at off on class ci's list, threaded through the free
// slots' first bytes as memcached's is: each holds the next slot's offset
// plus one, 0 ending the list.
func (m *slotPages) free(ci int, off int64) {
	binary.LittleEndian.PutUint64(m.at(off, 8), uint64(m.slots[ci]))
	m.slots[ci] = off + 1
}

// drop lets every page go, with every slot in it.
func (m *slotPages) drop() {
	m.mapped, m.pages = nil, nil
	clear(m.slots)
	clear(m.next)
}

// Keys live in keyPages: slots in 16-byte steps up to MaxKeyLen, cut from
// 16 KB heap pages, small because each slot size a store uses costs it a
// page. An entry names its key's slot by its offset in keySlotSize units,
// so four bytes address 64 GB of keys.
const (
	keySlotSize  = 16
	keyPageShift = 14
	keyClasses   = (MaxKeyLen + keySlotSize - 1) / keySlotSize
)

// keyPages is the memory a store copies every key into. room counts, per
// class, the slots of its newest page never used.
type keyPages struct {
	slotPages
	room []int64
}

func newKeyPages() keyPages {
	return keyPages{
		slotPages: slotPages{shift: keyPageShift, slots: make([]int64, keyClasses), next: make([]int64, keyClasses)},
		room:      make([]int64, keyClasses),
	}
}

// keyClass is the slot class of a key of n bytes, 1 <= n <= MaxKeyLen.
func keyClass(n int) int { return (n - 1) / keySlotSize }

// putKey copies key, a valid key, into a slot and returns the slot's offset in
// keySlotSize units.
func putKey[K string | []byte](m *keyPages, key K) uint32 {
	ci := keyClass(len(key))
	size := int64(ci+1) * keySlotSize
	if m.slots[ci] == 0 {
		if m.room[ci] == 0 {
			m.grant(ci, int64(len(m.pages))<<keyPageShift)
			m.room[ci] = 1 << keyPageShift / size
		}
		m.room[ci]--
	}
	off := m.take(ci, size)
	copy(m.at(off, int64(len(key))), key)
	return uint32(off / keySlotSize)
}

// key returns the n bytes of the key in slot slot.
func (m *keyPages) key(slot uint32, n int) []byte {
	return m.at(int64(slot)*keySlotSize, int64(n))
}

// release puts the slot of a key of n bytes back on its class's list.
func (m *keyPages) release(slot uint32, n int) {
	m.free(keyClass(n), int64(slot)*keySlotSize)
}

// reset lets every key page go.
func (m *keyPages) reset() {
	m.drop()
	clear(m.room)
}

// slabMemory is what a store that owns its value bytes keeps them in, and
// where each item's are (see newOwningStore). Slab page p is the range at
// p*slabPageSize, granted to a class in order as the store's alloced grows;
// the store counts each class's free chunks (slabClass.freeChunks), so a
// class takes a chunk only when it has one. A chunk never crosses a page: no
// chunk is larger than one.
type slabMemory struct {
	slotPages
	// chunks is a side array beside the store's entry arenas: chunks[k][j]
	// is the chunk offset of arena k's entry j. The entry itself stays the
	// simulated bank's 104 bytes.
	chunks [][]int64
}

// newOwningStore returns a store bounded like NewStore's that owns its
// value bytes, as memcached does: a stored value is copied into a chunk of
// its slab class's pages, and every read copies it out under the lock. The
// TCP daemon's store is one; a simulated bank's keeps blobs by reference.
func newOwningStore(limit int64, now func() int64) *Store {
	s := NewStore(limit, now)
	s.mem = &slabMemory{slotPages: slotPages{shift: slabPageShift, slots: make([]int64, len(s.classes)), next: make([]int64, len(s.classes))}}
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
	m.drop()
	m.chunks = nil
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
