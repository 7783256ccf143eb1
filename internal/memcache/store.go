// Package memcache reimplements the memcached object cache: a slab
// allocator with per-class LRU eviction, lazy expiration, the text
// protocol, and a client library with pluggable key→server distribution
// (CRC32 hashing, as in libmemcache, or static modulo / round-robin).
//
// The same Store backs two deployments:
//
//   - a real TCP daemon (Server / cmd/memcached) speaking the memcached
//     text and binary protocols over net.Conn, usable with any memcached
//     client, and
//   - simulated MCD nodes (SimServer) attached to fabric nodes inside the
//     discrete-event simulation, used by the IMCa experiments.
//
// Values are blobs (see internal/blob), so simulated deployments can cache
// gigabytes of synthetic file data without allocating it, while the TCP
// daemon stores literal bytes in its slab pages: memory the store owns,
// outside the collected heap, which sets copy into and gets copy out of.
//
// Two sizes of an item are kept apart. What memcached charges an item
// against its memory limit — its key, its value and itemOverhead, the
// modelled item header — decides slab classes, eviction and every
// reported byte count. What the simulator spends holding it is the Go
// entry (104 bytes, see entry) plus the key's slot in the store's key pages
// (16-byte steps) and the value; that is host memory and never enters the
// model. Every store copies each key it stores into its key pages, so no
// caller's key outlives its call. The TCP daemon's store spends its limit
// on slab pages, as memcached does, and eight bytes per entry on where the
// entry's chunk is.
package memcache

import (
	"bytes"
	"errors"
	"sort"
	"strconv"
	"sync"

	"imca/internal/blob"
)

// Memcached-compatible limits.
const (
	// MaxKeyLen is the longest permitted key (the paper quotes 256; real
	// memcached enforces 250 printable bytes, which we follow).
	MaxKeyLen = 250
	// MaxValueLen is the largest value the protocol accepts (1 MB), which
	// the paper notes places a natural upper bound on the IMCa block size.
	MaxValueLen = 1 << 20
	// MaxItemValueLen is the largest value an item with a MaxKeyLen key
	// can hold: one slab page less the key and the item header, 1,048,278
	// bytes. A larger value is refused as too large, so it, not
	// MaxValueLen, is the bound on the IMCa block size.
	MaxItemValueLen = slabPageSize - MaxKeyLen - itemOverhead
	// slabPageSize is the allocation unit handed to a slab class.
	slabPageShift = 20
	slabPageSize  = 1 << slabPageShift
	// itemOverhead is memcached's per-item header and pointers, as the
	// model charges them; it is not the Go entry's size.
	itemOverhead = 48
	// minChunkSize is the smallest slab chunk.
	minChunkSize = 88
	// growthFactor is the chunk-size ratio between consecutive classes.
	growthFactor = 1.25
	// minBuckets is the hash table's initial size, and minArena and
	// maxArena bound an entry arena: each arena doubles the last between
	// them (see entryLocked). A full arena is 448 KB, the most a store
	// holds in entries it has no item for.
	minBuckets = 16
	minArena   = 16
	arenaShift = 12
	maxArena   = 1 << arenaShift
)

// Store errors.
var (
	ErrCacheMiss  = errors.New("memcache: cache miss")
	ErrNotStored  = errors.New("memcache: not stored")
	ErrExists     = errors.New("memcache: compare-and-swap conflict")
	ErrTooLarge   = errors.New("memcache: object too large")
	ErrBadKey     = errors.New("memcache: invalid key")
	ErrNotNumeric = errors.New("memcache: value is not a number")
	ErrServerDown = errors.New("memcache: server down")
)

// Item is a cache item as callers see it: what they store, and what a read
// returns — a copy; the store keeps its own entry.
type Item struct {
	Key   string
	Value blob.Blob
	Flags uint32
	// Expiration is an absolute virtual/wall time in seconds, or 0 for
	// no expiry. Protocol layers convert relative TTLs before storing.
	Expiration int64
	CAS        uint64
}

// entry is a resident item. Entries are cut from arenas and linked by
// index (see at), 0 meaning none, so a link is four bytes the collector
// does not scan. A chain step reads hash, hnext and where the key is — its
// slot in the store's key pages and its length — the entry's first 16
// bytes, and the key's bytes only when the hash matches; then come the
// class's LRU links (lruNext also chains free entries), the slab class and
// the item.
type entry struct {
	hash    uint32
	hnext   uint32
	key     uint32 // the key's slot, see keyPages
	klen    uint32
	lruPrev uint32
	lruNext uint32
	class   int32
	flags   uint32
	value   blob.Blob
	exp     int64
	cas     uint64
}

// Stats mirrors the counters reported by memcached's "stats" command that
// the paper's analysis relies on (hits, misses, evictions).
type Stats struct {
	CmdGet     uint64
	CmdSet     uint64
	GetHits    uint64
	GetMisses  uint64
	DeleteHits uint64
	DeleteMiss uint64
	Evictions  uint64
	Expired    uint64
	CurrItems  uint64
	TotalItems uint64
	Bytes      int64
	LimitBytes int64
	// The rest are a bank client's failure counters (SimClient.Stats,
	// ClientCounters); a store never moves them. DownReplies counts
	// requests answered by a dead daemon's connection reset, Unreachables
	// requests dropped on a cut link, and Failovers reads retried against
	// (or routed to) the replica copy. Ejects, Probes, Readmits and
	// FastFails trace the ejection state machine (SimClient.SetEjection),
	// Suspects and SuspectClears the latency-suspicion one
	// (SimClient.SetSuspicion); Probes and FastFails count for both.
	DownReplies   uint64
	Unreachables  uint64
	Ejects        uint64
	Probes        uint64
	Readmits      uint64
	FastFails     uint64
	Failovers     uint64
	Suspects      uint64
	SuspectClears uint64
}

// Add sums o into st, every field: a bank's total is its daemons' Stats
// plus its clients'.
func (st *Stats) Add(o Stats) {
	st.CmdGet += o.CmdGet
	st.CmdSet += o.CmdSet
	st.GetHits += o.GetHits
	st.GetMisses += o.GetMisses
	st.DeleteHits += o.DeleteHits
	st.DeleteMiss += o.DeleteMiss
	st.Evictions += o.Evictions
	st.Expired += o.Expired
	st.CurrItems += o.CurrItems
	st.TotalItems += o.TotalItems
	st.Bytes += o.Bytes
	st.LimitBytes += o.LimitBytes
	for _, ctr := range ClientCounters {
		*ctr.Field(st) += *ctr.Field(&o)
	}
}

// slabClass is one chunk-size class: items whose total size fits chunkSize
// are stored here, and eviction is LRU within the class.
type slabClass struct {
	chunkSize  int64
	freeChunks int64
	// Per-class LRU: head = most recently used.
	head, tail uint32
}

// Store is the cache engine. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	limit   int64
	alloced int64 // slab pages handed out
	classes []slabClass
	// buckets is the hash table, in the shape of memcached's assoc: a
	// power-of-two array of chains threaded through entry.hnext, doubled when
	// it holds more than 1.5 items per bucket. An item keeps its hash, so
	// growing, evicting and deleting never rehash a key. The hash is FNV-1a,
	// deliberately not the client selector's CRC32: CRC32Selector picks the
	// daemon from bits 16-30, so every key one daemon of a two-daemon bank
	// receives has the same bit 16, and a CRC32-indexed table past 65,536
	// buckets would fill half of them.
	buckets []uint32
	// arenas hold the entries: arena k holds indices k<<arenaShift + 1 on,
	// as many as its length. free chains entries (through lruNext) for the
	// next insert: the ones removeLocked cleared, and behind them the
	// unused rest of the newest arena. No entry leaves the store — every
	// read copies.
	arenas [][]entry
	free   uint32
	// keys holds every resident key's bytes.
	keys keyPages
	// mem holds the value bytes of a store that owns them, and where each
	// entry's are (newOwningStore); it is nil for one that keeps blobs by
	// reference.
	mem *slabMemory
	cas uint64
	// Now returns the current time in seconds; the simulation supplies
	// virtual time, the TCP server supplies wall time.
	Now func() int64

	stats Stats
}

// NewStore returns a store bounded to limit bytes of slab memory (the -m
// option of memcached). now supplies the clock in seconds.
func NewStore(limit int64, now func() int64) *Store {
	if now == nil {
		panic("memcache: nil clock")
	}
	s := &Store{limit: limit, buckets: make([]uint32, minBuckets), keys: newKeyPages(), Now: now}
	s.stats.LimitBytes = limit
	for size := int64(minChunkSize); ; {
		s.classes = append(s.classes, slabClass{chunkSize: size})
		if size >= slabPageSize {
			break
		}
		next := int64(float64(size) * growthFactor)
		// Align up to 8 like memcached.
		next = (next + 7) &^ 7
		if next <= size {
			next = size + 8
		}
		if next > slabPageSize {
			next = slabPageSize
		}
		size = next
	}
	return s
}

// classFor returns the slab class index for an item of total size n, or -1
// if it does not fit the largest chunk.
func (s *Store) classFor(n int64) int {
	for i := range s.classes {
		if n <= s.classes[i].chunkSize {
			return i
		}
	}
	return -1
}

func itemSize[K string | []byte](key K, value blob.Blob) int64 {
	return int64(len(key)) + value.Len() + itemOverhead
}

func validKey[K string | []byte](key K) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// at returns entry i, i != 0.
func (s *Store) at(i uint32) *entry {
	i--
	return &s.arenas[i>>arenaShift][i&(maxArena-1)]
}

// keyOf returns e's key, a borrow of the store's key pages valid while the
// lock is held and e resident.
func (s *Store) keyOf(e *entry) []byte { return s.keys.key(e.key, int(e.klen)) }

// lruUnlink removes e from class c's LRU list.
func (s *Store) lruUnlink(c *slabClass, e *entry) {
	if e.lruPrev != 0 {
		s.at(e.lruPrev).lruNext = e.lruNext
	} else {
		c.head = e.lruNext
	}
	if e.lruNext != 0 {
		s.at(e.lruNext).lruPrev = e.lruPrev
	} else {
		c.tail = e.lruPrev
	}
	e.lruPrev, e.lruNext = 0, 0
}

// lruPush inserts entry i, e, at the head of class c's list (most recent).
func (s *Store) lruPush(c *slabClass, i uint32, e *entry) {
	e.lruPrev = 0
	e.lruNext = c.head
	if c.head != 0 {
		s.at(c.head).lruPrev = i
	}
	c.head = i
	if c.tail == 0 {
		c.tail = i
	}
}

// expired reports whether e has lazily expired at time now.
func (e *entry) expired(now int64) bool {
	return e.exp != 0 && e.exp <= now
}

// hashKey is the table's hash of a key, 32-bit FNV-1a, for a key held as a
// string or still sitting in a wire buffer.
func hashKey[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// bucket returns the head of the chain a key hashing to h belongs in.
func (s *Store) bucket(h uint32) *uint32 { return &s.buckets[h&uint32(len(s.buckets)-1)] }

// findLocked returns key's entry (0 when absent) and key's hash. The
// comparison converts both keys in place, so a lookup builds no string.
func findLocked[K string | []byte](s *Store, key K) (uint32, uint32) {
	h := hashKey(key)
	for i := *s.bucket(h); i != 0; {
		e := s.at(i)
		if e.hash == h && int(e.klen) == len(key) && string(s.keyOf(e)) == string(key) {
			return i, h
		}
		i = e.hnext
	}
	return 0, h
}

// growLocked doubles the table, moving each entry by the hash it keeps.
func (s *Store) growLocked() {
	old := s.buckets
	s.buckets = make([]uint32, 2*len(old))
	for _, i := range old {
		for i != 0 {
			e := s.at(i)
			next, b := e.hnext, s.bucket(e.hash)
			e.hnext, *b = *b, i
			i = next
		}
	}
}

// entryLocked takes a cleared entry off the free list. When the list is
// empty it is refilled with a new arena, each double the last from minArena
// to maxArena entries: the store allocates per slab of entries, as memcached
// cuts items from slab pages, not per item.
func (s *Store) entryLocked() uint32 {
	if s.free == 0 {
		k := len(s.arenas)
		size := minArena
		if k > 0 {
			size = min(2*len(s.arenas[k-1]), maxArena)
		}
		arena := make([]entry, size)
		first := uint32(k)<<arenaShift + 1
		for i := range arena[1:] {
			arena[i].lruNext = first + uint32(i) + 1
		}
		s.arenas = append(s.arenas, arena)
		if s.mem != nil {
			s.mem.chunks = append(s.mem.chunks, make([]int64, size))
		}
		s.free = first
	}
	i := s.free
	e := s.at(i)
	s.free, e.lruNext = e.lruNext, 0
	return i
}

// removeLocked deletes entry i from the table, returns its chunk to the
// class free list, and the entry, cleared, to the store's.
func (s *Store) removeLocked(i uint32) {
	e := s.at(i)
	b := s.bucket(e.hash)
	for *b != i {
		b = &s.at(*b).hnext
	}
	*b = e.hnext
	c := &s.classes[e.class]
	s.lruUnlink(c, e)
	c.freeChunks++
	if s.mem != nil {
		s.mem.free(int(e.class), *s.mem.chunkOf(i))
	}
	s.stats.CurrItems--
	s.stats.Bytes -= itemSize(s.keyOf(e), e.value)
	s.keys.release(e.key, int(e.klen))
	*e = entry{lruNext: s.free}
	s.free = i
}

// reserveChunkLocked obtains a chunk in class ci, growing the class by a
// slab page if the memory limit allows, else evicting LRU items of the
// same class (memcached's policy). It returns the chunk's offset in the
// store's slab memory; a store without one has only the count.
func (s *Store) reserveChunkLocked(ci int) (int64, error) {
	c := &s.classes[ci]
	if c.freeChunks == 0 && s.alloced+slabPageSize <= s.limit {
		if s.mem != nil {
			s.mem.grant(ci, s.alloced)
		}
		s.alloced += slabPageSize
		c.freeChunks += slabPageSize / c.chunkSize // >=1: max chunk == page size
	}
	// Evict from this class's LRU tail.
	for c.freeChunks == 0 {
		evict := c.tail
		if evict == 0 {
			return 0, ErrTooLarge // class has no memory and nothing to evict
		}
		if s.at(evict).expired(s.Now()) {
			s.stats.Expired++
		} else {
			s.stats.Evictions++
		}
		s.removeLocked(evict)
	}
	c.freeChunks--
	if s.mem == nil {
		return 0, nil
	}
	return s.mem.take(ci, c.chunkSize), nil
}

// Set unconditionally stores item.
func (s *Store) Set(item *Item) error { return apply(s, verbSet, item.Key, item) }

// Add stores item only if the key is absent.
func (s *Store) Add(item *Item) error { return apply(s, verbAdd, item.Key, item) }

// Replace stores item only if the key is present.
func (s *Store) Replace(item *Item) error { return apply(s, verbReplace, item.Key, item) }

// CompareAndSwap stores item only if its CAS matches the stored item's.
func (s *Store) CompareAndSwap(item *Item) error { return apply(s, verbCAS, item.Key, item) }

// Append appends value bytes to an existing item.
func (s *Store) Append(key string, v blob.Blob) error {
	return apply(s, verbAppend, key, &Item{Value: v})
}

// Prepend prepends value bytes to an existing item.
func (s *Store) Prepend(key string, v blob.Blob) error {
	return apply(s, verbPrepend, key, &Item{Value: v})
}

// apply runs storage verb v — set, add, replace, cas, append or prepend —
// for key and item; item.Key is not read. The key is held as a string or
// lent as bytes — a simulated request's key list, a connection's buffer —
// and the store copies it into its key pages, so the lend ends when apply
// returns. An append or prepend joins item.Value to the stored value and
// keeps the stored flags and expiry; the others store item whole. On
// success item.CAS is the stored item's new CAS.
func apply[K string | []byte](s *Store, v verb, key K, item *Item) error {
	if !validKey(key) {
		return ErrBadKey
	}
	join := v == verbAppend || v == verbPrepend
	if !join && item.Value.Len() > MaxValueLen { // a join is judged joined
		return ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.CmdSet++
	old, hash := findLocked(s, key)
	if old != 0 && s.at(old).expired(s.Now()) {
		s.stats.Expired++
		s.removeLocked(old)
		old = 0
	}
	switch {
	case v == verbAdd && old != 0, (v == verbReplace || join) && old == 0:
		return ErrNotStored
	case v == verbCAS && old == 0:
		return ErrCacheMiss
	case v == verbCAS && s.at(old).cas != item.CAS:
		return ErrExists
	case join:
		e := s.at(old)
		head, tail := e.value, item.Value
		if v == verbPrepend {
			head, tail = tail, head
		}
		if head.Len()+tail.Len() > MaxValueLen {
			return ErrTooLarge
		}
		if s.mem != nil {
			// The old chunk is freed before the joined value is copied in,
			// so its bytes are taken first.
			joined := make([]byte, 0, head.Len()+tail.Len())
			item.Value = blob.FromBytes(append(append(joined, head.Bytes()...), tail.Bytes()...))
		} else {
			item.Value = blob.Concat(head, tail)
		}
		item.Flags, item.Expiration = e.flags, e.exp
	}
	return insertLocked(s, key, item, hash, old)
}

// applyLent is apply for a value whose bytes the caller lends and reuses,
// a connection's read buffer: a store that owns its value bytes copies them
// into the item's chunk, and any other is handed a copy of its own.
func applyLent[K string | []byte](s *Store, v verb, key K, item *Item) error {
	if s.mem == nil {
		item.Value = blob.FromBytes(bytes.Clone(item.Value.Bytes()))
	}
	return apply(s, v, key, item)
}

// insertLocked places key and item, the key hashing to hash, in the table,
// replacing entry old unless 0. The key is copied into a slot of the key
// pages.
func insertLocked[K string | []byte](s *Store, key K, item *Item, hash uint32, old uint32) error {
	size := itemSize(key, item.Value)
	ci := s.classFor(size)
	if ci < 0 {
		return ErrTooLarge
	}
	if old != 0 {
		s.removeLocked(old)
	}
	off, err := s.reserveChunkLocked(ci)
	if err != nil {
		return err
	}
	s.cas++
	// Entries come zeroed (removeLocked cleared a recycled one), and
	// lruPush sets both links.
	i := s.entryLocked()
	e := s.at(i)
	b := s.bucket(hash)
	e.hash, e.hnext, e.class = hash, *b, int32(ci)
	e.key, e.klen = putKey(&s.keys, key), uint32(len(key))
	e.flags, e.value, e.exp, e.cas = item.Flags, item.Value, item.Expiration, s.cas
	if s.mem != nil {
		*s.mem.chunkOf(i) = off
		chunk := s.mem.at(off, item.Value.Len())
		copy(chunk, item.Value.Bytes())
		e.value = blob.FromBytes(chunk)
	}
	*b = i
	s.lruPush(&s.classes[ci], i, e)
	s.stats.CurrItems++
	s.stats.TotalItems++
	s.stats.Bytes += size
	item.CAS = s.cas
	if s.stats.CurrItems > uint64(len(s.buckets))*3/2 {
		s.growLocked()
	}
	return nil
}

// Get returns the item for key, or ErrCacheMiss.
func (s *Store) Get(key string) (*Item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := findLocked(s, key)
	v, ok := s.viewLocked(i, nil)
	if !ok {
		return nil, ErrCacheMiss
	}
	hit := v // the heap copy is made here, so a miss allocates nothing
	hit.Key = key
	return &hit, nil
}

// viewLocked is the one read path: given the table entry for a key (0
// when absent) it counts the get, lazily expires, touches the LRU and
// returns a snapshot of the entry by value, without its key. The value of
// a store that owns its bytes is copied out into scratch (see copyOut).
func (s *Store) viewLocked(i uint32, scratch *[]byte) (Item, bool) {
	s.stats.CmdGet++
	if i == 0 {
		s.stats.GetMisses++
		return Item{}, false
	}
	e := s.at(i)
	if e.expired(s.Now()) {
		s.stats.Expired++
		s.stats.GetMisses++
		s.removeLocked(i)
		return Item{}, false
	}
	s.stats.GetHits++
	c := &s.classes[e.class]
	s.lruUnlink(c, e)
	s.lruPush(c, i, e)
	v := e.value
	if s.mem != nil {
		v = copyOut(v, scratch)
	}
	return Item{Value: v, Flags: e.flags, Expiration: e.exp, CAS: e.cas}, true
}

// GetView is Get returning the entry by value: same lookup, same stats,
// same LRU touch and lazy expiry, but the snapshot lands in the caller's
// Item instead of a freshly allocated copy, and has no Key: the caller
// holds it already. The key is bytes the caller lends — a simulated
// request's key list or the real daemon's wire buffer — and the lookup
// compares in place, so a get builds no key string. A store that owns its
// value bytes copies the value into *scratch, grown as bodyBuffer grows a
// connection's, or into a buffer of its own when scratch is nil; a store of
// blobs hands out the blob and leaves scratch alone. ok is false on a miss.
func (s *Store) GetView(key []byte, scratch *[]byte) (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := findLocked(s, key)
	return s.viewLocked(i, scratch)
}

// Delete removes key, returning ErrCacheMiss if absent.
func (s *Store) Delete(key string) error { return deleteKey(s, key) }

// deleteKey is Delete for a key held as a string or as bytes.
func deleteKey[K string | []byte](s *Store, key K) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := findLocked(s, key)
	if i == 0 || s.at(i).expired(s.Now()) {
		if i != 0 {
			s.stats.Expired++
			s.removeLocked(i)
		}
		s.stats.DeleteMiss++
		return ErrCacheMiss
	}
	s.removeLocked(i)
	s.stats.DeleteHits++
	return nil
}

// IncrDecr adjusts a numeric ASCII value by delta (decr floors at 0, as in
// memcached). It returns the new value.
func (s *Store) IncrDecr(key string, delta uint64, incr bool) (uint64, error) {
	return incrDecr(s, key, delta, incr)
}

// incrDecr is IncrDecr for a key held as a string or lent as bytes.
func incrDecr[K string | []byte](s *Store, key K, delta uint64, incr bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, hash := findLocked(s, key)
	if i == 0 || s.at(i).expired(s.Now()) {
		if i != 0 {
			s.stats.Expired++
			s.removeLocked(i)
		}
		return 0, ErrCacheMiss
	}
	e := s.at(i)
	cur, ok := parseUintBlob(e.value)
	if !ok {
		return 0, ErrNotNumeric
	}
	var next uint64
	if incr {
		next = cur + delta
	} else if delta > cur {
		next = 0
	} else {
		next = cur - delta
	}
	nv := blob.FromBytes(strconv.AppendUint(nil, next, 10))
	item := &Item{Value: nv, Flags: e.flags, Expiration: e.exp}
	if err := insertLocked(s, key, item, hash, i); err != nil {
		return 0, err
	}
	return next, nil
}

// parseUintBlob is parseUint over a value's bytes, read one at a time: a
// value that is no number is refused at its first bad byte, without
// building its bytes.
func parseUintBlob(b blob.Blob) (uint64, bool) {
	n := b.Len()
	if n == 0 {
		return 0, false
	}
	var v uint64
	for i := int64(0); i < n; i++ {
		var ok bool
		if v, ok = addDigit(v, b.At(i)); !ok {
			return 0, false
		}
	}
	return v, true
}

// FlushAll invalidates every item immediately and lets their entries, the
// arenas, the key pages and the grown table go. The slab pages stay with
// their classes.
func (s *Store) FlushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

func (s *Store) flushLocked() {
	for ci := range s.classes {
		for c := &s.classes[ci]; c.tail != 0; {
			s.removeLocked(c.tail)
		}
	}
	s.buckets, s.arenas, s.free = make([]uint32, minBuckets), nil, 0
	s.keys.reset()
	if s.mem != nil {
		s.mem.chunks = nil
	}
}

// release empties a store that owns its value bytes and gives its slab
// memory back. The store keeps its counters and has no memory left: it
// answers every read as an empty store and refuses every store as too
// large. Releasing again does nothing.
func (s *Store) release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem == nil {
		return nil
	}
	s.flushLocked()
	for ci := range s.classes {
		s.classes[ci].freeChunks = 0
	}
	s.limit, s.alloced = 0, 0
	return s.mem.release()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ClassStat describes one slab class's occupancy.
type ClassStat struct {
	ChunkSize  int64
	UsedChunks int64
	FreeChunks int64
}

// SlabStats returns occupancy for every class that has ever held an item,
// mirroring memcached's "stats slabs" output.
func (s *Store) SlabStats() map[int]ClassStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]ClassStat)
	for ci := range s.classes {
		c := &s.classes[ci]
		used := int64(0)
		for i := c.head; i != 0; i = s.at(i).lruNext {
			used++
		}
		if used == 0 && c.freeChunks == 0 {
			continue
		}
		out[ci] = ClassStat{
			ChunkSize:  c.chunkSize,
			UsedChunks: used,
			FreeChunks: c.freeChunks,
		}
	}
	return out
}

// Len returns the current item count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.stats.CurrItems)
}

// Keys returns every resident key in sorted order. It is an audit
// surface (the replica-coherence oracle enumerates both copies with it)
// and deliberately touches no stats, LRU state, or lazy expiry: auditing
// a store must not change what a later workload observes.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.stats.CurrItems)
	for _, i := range s.buckets {
		for i != 0 {
			e := s.at(i)
			out = append(out, string(s.keyOf(e)))
			i = e.hnext
		}
	}
	sort.Strings(out)
	return out
}

// Peek returns key's stored value without any side effects: no stats, no
// LRU touch, no lazy expiry. Like Keys, it exists for audits; ok is
// false when the key is absent (an expired-but-resident item is still
// returned — the audit compares what a reader could be served).
func (s *Store) Peek(key string) (blob.Blob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := findLocked(s, key)
	if i == 0 {
		return blob.Blob{}, false
	}
	if s.mem != nil {
		return copyOut(s.at(i).value, nil), true
	}
	return s.at(i).value, true
}
