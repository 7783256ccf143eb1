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
// daemon stores literal bytes.
package memcache

import (
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
	slabPageSize = 1 << 20
	// itemOverhead approximates memcached's per-item header + pointers.
	itemOverhead = 48
	// minChunkSize is the smallest slab chunk.
	minChunkSize = 88
	// growthFactor is the chunk-size ratio between consecutive classes.
	growthFactor = 1.25
	// minBuckets is the hash table's initial size, and minArena and
	// maxArena bound an entry arena: each arena doubles the last between
	// them (see entryLocked). A full arena is 608 KB, the most a store
	// holds in entries it has no item for.
	minBuckets = 16
	minArena   = 16
	maxArena   = 1 << 12
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

// Item is a cache entry.
type Item struct {
	Key   string
	Value blob.Blob
	Flags uint32
	// Expiration is an absolute virtual/wall time in seconds, or 0 for
	// no expiry. Protocol layers convert relative TTLs before storing.
	Expiration int64
	CAS        uint64

	// The store's own links: the key's table hash and chain, the slab
	// class, and the class's LRU list (lruNext also chains free entries).
	hash    uint32
	class   int
	hnext   *Item
	lruPrev *Item
	lruNext *Item
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
	head, tail *Item
}

// Store is the cache engine. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	limit   int64
	alloced int64 // slab pages handed out
	classes []slabClass
	// buckets is the hash table, in the shape of memcached's assoc: a
	// power-of-two array of chains threaded through Item.hnext, doubled when
	// it holds more than 1.5 items per bucket. An item keeps its hash, so
	// growing, evicting and deleting never rehash a key. The hash is FNV-1a,
	// deliberately not the client selector's CRC32: CRC32Selector picks the
	// daemon from bits 16-30, so every key one daemon of a two-daemon bank
	// receives has the same bit 16, and a CRC32-indexed table past 65,536
	// buckets would fill half of them.
	buckets []*Item
	// free chains entries (through lruNext) for the next insert: the ones
	// removeLocked cleared, and behind them the unused rest of the newest
	// arena. arena is that arena's length. No *Item of the table leaves the
	// store — every read copies.
	free  *Item
	arena int
	cas   uint64
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
	s := &Store{limit: limit, buckets: make([]*Item, minBuckets), Now: now}
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

func itemSize(key string, value blob.Blob) int64 {
	return int64(len(key)) + value.Len() + itemOverhead
}

func validKey(key string) bool {
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

// lruUnlink removes it from its class's LRU list.
func (c *slabClass) lruUnlink(it *Item) {
	if it.lruPrev != nil {
		it.lruPrev.lruNext = it.lruNext
	} else {
		c.head = it.lruNext
	}
	if it.lruNext != nil {
		it.lruNext.lruPrev = it.lruPrev
	} else {
		c.tail = it.lruPrev
	}
	it.lruPrev, it.lruNext = nil, nil
}

// lruPush inserts it at the head (most recent).
func (c *slabClass) lruPush(it *Item) {
	it.lruPrev = nil
	it.lruNext = c.head
	if c.head != nil {
		c.head.lruPrev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
}

// expired reports whether it has lazily expired at time now.
func (it *Item) expired(now int64) bool {
	return it.Expiration != 0 && it.Expiration <= now
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
func (s *Store) bucket(h uint32) **Item { return &s.buckets[h&uint32(len(s.buckets)-1)] }

// findLocked returns key's entry (nil when absent) and key's hash. The
// comparison converts a []byte key in place, so a lookup builds no string.
func findLocked[K string | []byte](s *Store, key K) (*Item, uint32) {
	h := hashKey(key)
	for it := *s.bucket(h); it != nil; it = it.hnext {
		if it.hash == h && it.Key == string(key) {
			return it, h
		}
	}
	return nil, h
}

// growLocked doubles the table, moving each item by the hash it keeps.
func (s *Store) growLocked() {
	old := s.buckets
	s.buckets = make([]*Item, 2*len(old))
	for _, it := range old {
		for it != nil {
			next, b := it.hnext, s.bucket(it.hash)
			it.hnext, *b = *b, it
			it = next
		}
	}
}

// entryLocked takes a cleared entry off the free list. When the list is
// empty it is refilled with a new arena, each double the last from minArena
// to maxArena entries: the store allocates per slab of entries, as memcached
// cuts items from slab pages, not per item.
func (s *Store) entryLocked() *Item {
	if s.free == nil {
		s.arena = min(max(2*s.arena, minArena), maxArena)
		arena := make([]Item, s.arena)
		for i := range arena[1:] {
			arena[i].lruNext = &arena[i+1]
		}
		s.free = &arena[0]
	}
	it := s.free
	s.free, it.lruNext = it.lruNext, nil
	return it
}

// removeLocked deletes an item from the table, returns its chunk to the
// class free list, and its entry, cleared, to the store's.
func (s *Store) removeLocked(it *Item) {
	b := s.bucket(it.hash)
	for *b != it {
		b = &(*b).hnext
	}
	*b = it.hnext
	c := &s.classes[it.class]
	c.lruUnlink(it)
	c.freeChunks++
	s.stats.CurrItems--
	s.stats.Bytes -= itemSize(it.Key, it.Value)
	*it = Item{lruNext: s.free}
	s.free = it
}

// reserveChunkLocked obtains a chunk in class ci, growing the class by a
// slab page if the memory limit allows, else evicting LRU items of the
// same class (memcached's policy).
func (s *Store) reserveChunkLocked(ci int) error {
	c := &s.classes[ci]
	if c.freeChunks > 0 {
		c.freeChunks--
		return nil
	}
	if s.alloced+slabPageSize <= s.limit {
		s.alloced += slabPageSize
		c.freeChunks += slabPageSize / c.chunkSize // >=1: max chunk == page size
		c.freeChunks--
		return nil
	}
	// Evict from this class's LRU tail.
	for c.tail != nil {
		evict := c.tail
		if evict.expired(s.Now()) {
			s.stats.Expired++
		} else {
			s.stats.Evictions++
		}
		s.removeLocked(evict)
		if c.freeChunks > 0 {
			c.freeChunks--
			return nil
		}
	}
	return ErrTooLarge // class has no memory and nothing to evict
}

// Set unconditionally stores item.
func (s *Store) Set(item *Item) error { return s.apply(verbSet, item) }

// Add stores item only if the key is absent.
func (s *Store) Add(item *Item) error { return s.apply(verbAdd, item) }

// Replace stores item only if the key is present.
func (s *Store) Replace(item *Item) error { return s.apply(verbReplace, item) }

// CompareAndSwap stores item only if its CAS matches the stored item's.
func (s *Store) CompareAndSwap(item *Item) error { return s.apply(verbCAS, item) }

// Append appends value bytes to an existing item.
func (s *Store) Append(key string, v blob.Blob) error {
	return s.apply(verbAppend, &Item{Key: key, Value: v})
}

// Prepend prepends value bytes to an existing item.
func (s *Store) Prepend(key string, v blob.Blob) error {
	return s.apply(verbPrepend, &Item{Key: key, Value: v})
}

// apply runs storage verb v — set, add, replace, cas, append or prepend —
// for item. An append or prepend joins item.Value to the stored value and
// keeps the stored flags and expiry; the others store item whole. On
// success item.CAS is the stored item's new CAS.
func (s *Store) apply(v verb, item *Item) error {
	if !validKey(item.Key) {
		return ErrBadKey
	}
	join := v == verbAppend || v == verbPrepend
	if !join && item.Value.Len() > MaxValueLen { // a join is judged joined
		return ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.CmdSet++
	old, hash := findLocked(s, item.Key)
	if old != nil && old.expired(s.Now()) {
		s.stats.Expired++
		s.removeLocked(old)
		old = nil
	}
	switch {
	case v == verbAdd && old != nil, (v == verbReplace || join) && old == nil:
		return ErrNotStored
	case v == verbCAS && old == nil:
		return ErrCacheMiss
	case v == verbCAS && old.CAS != item.CAS:
		return ErrExists
	case join:
		if v == verbAppend {
			item.Value = blob.Concat(old.Value, item.Value)
		} else {
			item.Value = blob.Concat(item.Value, old.Value)
		}
		if item.Value.Len() > MaxValueLen {
			return ErrTooLarge
		}
		item.Flags, item.Expiration = old.Flags, old.Expiration
	}
	return s.insertLocked(item, hash, old)
}

// insertLocked places item, whose key hashes to hash, in the table,
// replacing old unless nil.
func (s *Store) insertLocked(item *Item, hash uint32, old *Item) error {
	size := itemSize(item.Key, item.Value)
	ci := s.classFor(size)
	if ci < 0 {
		return ErrTooLarge
	}
	if old != nil {
		s.removeLocked(old)
	}
	if err := s.reserveChunkLocked(ci); err != nil {
		return err
	}
	s.cas++
	// Entries come zeroed (removeLocked cleared a recycled one), and
	// lruPush sets both links.
	stored := s.entryLocked()
	stored.Key, stored.Value, stored.Flags, stored.Expiration = item.Key, item.Value, item.Flags, item.Expiration
	stored.CAS, stored.hash, stored.class = s.cas, hash, ci
	b := s.bucket(hash)
	stored.hnext, *b = *b, stored
	s.classes[ci].lruPush(stored)
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
	it, _ := findLocked(s, key)
	v, ok := s.viewLocked(it)
	if !ok {
		return nil, ErrCacheMiss
	}
	hit := v // the heap copy is made here, so a miss allocates nothing
	return &hit, nil
}

// viewLocked is the one read path: given the table entry for a key (nil
// when absent) it counts the get, lazily expires, touches the LRU and
// returns a snapshot of the entry by value.
func (s *Store) viewLocked(it *Item) (Item, bool) {
	s.stats.CmdGet++
	if it == nil {
		s.stats.GetMisses++
		return Item{}, false
	}
	now := s.Now()
	if it.expired(now) {
		s.stats.Expired++
		s.stats.GetMisses++
		s.removeLocked(it)
		return Item{}, false
	}
	s.stats.GetHits++
	c := &s.classes[it.class]
	c.lruUnlink(it)
	c.lruPush(it)
	return Item{Key: it.Key, Value: it.Value, Flags: it.Flags, Expiration: it.Expiration, CAS: it.CAS}, true
}

// GetView is Get returning the entry by value: same lookup, same stats,
// same LRU touch and lazy expiry, but the snapshot lands in the caller's
// Item instead of a freshly allocated copy. The key is bytes the caller
// lends — a simulated request's key list or the real daemon's wire buffer —
// and the lookup compares in place, so a get builds no key string. ok is
// false on a miss.
func (s *Store) GetView(key []byte) (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, _ := findLocked(s, key)
	return s.viewLocked(it)
}

// Delete removes key, returning ErrCacheMiss if absent.
func (s *Store) Delete(key string) error { return deleteKey(s, key) }

// deleteKey is Delete for a key held as a string or as bytes.
func deleteKey[K string | []byte](s *Store, key K) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, _ := findLocked(s, key)
	if it == nil || it.expired(s.Now()) {
		if it != nil {
			s.stats.Expired++
			s.removeLocked(it)
		}
		s.stats.DeleteMiss++
		return ErrCacheMiss
	}
	s.removeLocked(it)
	s.stats.DeleteHits++
	return nil
}

// IncrDecr adjusts a numeric ASCII value by delta (decr floors at 0, as in
// memcached). It returns the new value.
func (s *Store) IncrDecr(key string, delta uint64, incr bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, hash := findLocked(s, key)
	if it == nil || it.expired(s.Now()) {
		if it != nil {
			s.stats.Expired++
			s.removeLocked(it)
		}
		return 0, ErrCacheMiss
	}
	cur, ok := parseUint(it.Value.Bytes())
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
	item := &Item{Key: key, Value: nv, Flags: it.Flags, Expiration: it.Expiration}
	if err := s.insertLocked(item, hash, it); err != nil {
		return 0, err
	}
	return next, nil
}

// FlushAll invalidates every item immediately and lets their entries, the
// arenas and the grown table go.
func (s *Store) FlushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ci := range s.classes {
		for c := &s.classes[ci]; c.tail != nil; {
			s.removeLocked(c.tail)
		}
	}
	s.buckets, s.free, s.arena = make([]*Item, minBuckets), nil, 0
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
		for it := c.head; it != nil; it = it.lruNext {
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
	for _, it := range s.buckets {
		for ; it != nil; it = it.hnext {
			out = append(out, it.Key)
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
	it, _ := findLocked(s, key)
	if it == nil {
		return blob.Blob{}, false
	}
	return it.Value, true
}
