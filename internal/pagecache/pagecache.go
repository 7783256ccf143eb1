// Package pagecache implements an OS buffer cache model: a byte-capacity
// bounded LRU of fixed-size pages keyed by (file, page index).
//
// It tracks only presence, not contents — in the simulation, data contents
// travel as blobs while the cache decides whether an access hits memory or
// must go to the disk model. It is the buffer cache of every server's
// storage (GlusterFS bricks, the NFS server, Lustre OSTs) and the page
// cache of every Lustre client, which keeps each resident page's contents
// beside it and drops them as OnRemove reports the page gone.
package pagecache

import (
	"imca/internal/metrics"
	"imca/internal/sim"
)

// Range is a byte extent within a file.
type Range struct {
	Off, Len int64
}

// End returns the first byte past the range.
func (r Range) End() int64 { return r.Off + r.Len }

// The cache is indexed as the kernel indexes its own — per inode, by page
// number — one level deep: a map entry per file leads to the file's chunks,
// each the slots of chunkPages consecutive pages. chunkPages is small: most
// files the posix layer caches are one-page metadata pseudo-files, and a
// file, a chunk and a page are all such a file costs.
const (
	chunkShift = 3
	chunkPages = 1 << chunkShift
)

// page is one cached page: its index, its chunk, and the links of the
// intrusive LRU ring. Evicted and invalidated pages, and the chunks and
// files they leave empty, go onto free lists the next insert draws from, so
// a cache running at capacity — the steady state of every streaming
// workload — inserts without allocating; and a filling cache cuts its pages
// and chunks from arenas, an allocation per arena, not per node.
type page struct {
	idx        int64
	chunk      *chunk
	prev, next *page
}

// chunk holds the resident pages among chunkPages consecutive indexes of
// one file; it exists only while one of them is resident.
type chunk struct {
	file  *file
	num   int64 // page index >> chunkShift
	slots [chunkPages]*page
}

// file is one inode's index. last is the chunk used most recently. chunks
// maps every chunk by number once a second chunk has made that necessary;
// until then last is the only chunk and the file costs no hash table.
type file struct {
	ino    uint64
	last   *chunk
	chunks map[int64]*chunk
}

// Cache is a bounded LRU page cache. It is not safe for concurrent use; in
// the simulation exactly one process runs at a time, so no locking is
// needed.
type Cache struct {
	pageSize int64
	capacity int64
	used     int64
	// root is the sentinel of the LRU ring: root.next is the most recently
	// used page, root.prev the eviction victim.
	root       page
	files      map[uint64]*file
	freePages  sim.Free[page]
	freeChunks sim.Free[chunk]
	freeFiles  sim.Free[file]
	pageArena  arena[page]
	chunkArena arena[chunk]

	Hits, Misses, Evictions uint64

	// OnRemove, when set, is told each page the cache evicts or
	// invalidates, once, as it goes; Clear reports none. An owner keeping
	// contents beside the cache drops them here.
	OnRemove func(ino uint64, idx int64)

	// FillHist, when registered, receives the disk-fill latency of each
	// miss repaired by the cache's owner (the posix xlator observes into
	// it — the cache itself has no clock). Nil is a no-op.
	FillHist *metrics.Histogram
}

// New returns a cache bounded to capacity bytes of pageSize pages.
func New(capacity, pageSize int64) *Cache {
	if pageSize <= 0 || capacity < 0 {
		panic("pagecache: bad geometry")
	}
	c := &Cache{pageSize: pageSize, capacity: capacity, files: make(map[uint64]*file)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// unlink removes pg from the LRU ring.
func (c *Cache) unlink(pg *page) {
	pg.prev.next = pg.next
	pg.next.prev = pg.prev
}

// pushFront makes pg the most recently used page.
func (c *Cache) pushFront(pg *page) {
	pg.prev, pg.next = &c.root, c.root.next
	pg.next.prev = pg
	c.root.next = pg
}

// touch freshens a page already in the ring.
func (c *Cache) touch(pg *page) {
	if c.root.next != pg {
		c.unlink(pg)
		c.pushFront(pg)
	}
}

// Arena sizes: each arena a cache cuts nodes from doubles the last, from
// minArena to maxArena nodes (32 KB of pages, 80 KB of chunks).
const (
	minArena = 4
	maxArena = 1024
)

// arena is the rest of the newest arena a cache cuts nodes of one type from
// when their free list is empty. A node, once cut, is recycled through the
// free list and never returned, so an arena lives until Clear drops it.
type arena[T any] struct {
	rest []T
	size int // the newest arena's
}

// cut returns a zeroed node, refilling the arena first if it is used up.
func (a *arena[T]) cut() *T {
	if len(a.rest) == 0 {
		a.size = min(max(2*a.size, minArena), maxArena)
		a.rest = make([]T, a.size)
	}
	x := &a.rest[0]
	a.rest = a.rest[1:]
	return x
}

// chunkOf returns the chunk holding page idx of ino: nil if none of its
// pages is resident, unless create says to make it (and the file). A
// sequential scan stays on the file's last chunk and hashes only the inode.
func (c *Cache) chunkOf(ino uint64, idx int64, create bool) *chunk {
	f := c.files[ino]
	if f == nil {
		if !create {
			return nil
		}
		if f = c.freeFiles.Pop(); f == nil {
			f = new(file)
		}
		f.ino, c.files[ino] = ino, f
	}
	num, ch := idx>>chunkShift, f.last
	if ch == nil || ch.num != num {
		if ch = f.chunks[num]; ch == nil {
			if !create {
				return nil
			}
			if ch = c.freeChunks.Pop(); ch == nil {
				ch = c.chunkArena.cut()
			}
			ch.file, ch.num = f, num
			// A recycled file keeps its emptied map, so the map can be
			// there before the second chunk; when there it holds them all.
			if f.chunks == nil && f.last != nil {
				f.chunks = map[int64]*chunk{f.last.num: f.last}
			}
			if f.chunks != nil {
				f.chunks[num] = ch
			}
		}
		f.last = ch
	}
	return ch
}

// find returns the resident page idx of ino, or nil.
func (c *Cache) find(ino uint64, idx int64) *page {
	if ch := c.chunkOf(ino, idx, false); ch != nil {
		return ch.slots[idx&(chunkPages-1)]
	}
	return nil
}

// PageSize returns the page size.
func (c *Cache) PageSize() int64 { return c.pageSize }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return int(c.used / c.pageSize) }

// pageSpan returns the page index range [lo, hi) covering [off, off+size).
func (c *Cache) pageSpan(off, size int64) (lo, hi int64) {
	lo = off / c.pageSize
	hi = (off + size + c.pageSize - 1) / c.pageSize
	return lo, hi
}

// Lookup checks which pages covering [off, off+size) of file ino are
// present. Present pages are freshened; the return value lists the missing
// extents (page-aligned, coalesced, in order). An empty result means the
// access is fully cached.
func (c *Cache) Lookup(ino uint64, off, size int64) []Range {
	if size <= 0 {
		return nil
	}
	lo, hi := c.pageSpan(off, size)
	var missing []Range
	for idx := lo; idx < hi; idx++ {
		if pg := c.find(ino, idx); pg != nil {
			c.Hits++
			c.touch(pg)
			continue
		}
		c.Misses++
		start := idx * c.pageSize
		if n := len(missing); n > 0 && missing[n-1].End() == start {
			missing[n-1].Len += c.pageSize
		} else {
			missing = append(missing, Range{Off: start, Len: c.pageSize})
		}
	}
	return missing
}

// Contains reports whether every page covering the extent is cached,
// without freshening or counting stats.
func (c *Cache) Contains(ino uint64, off, size int64) bool {
	if size <= 0 {
		return true
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if c.find(ino, idx) == nil {
			return false
		}
	}
	return true
}

// Insert adds all pages covering [off, off+size) of ino, evicting
// least-recently-used pages as needed. Pages already present are freshened.
func (c *Cache) Insert(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if pg := c.find(ino, idx); pg != nil {
			c.touch(pg)
			continue
		}
		if c.pageSize > c.capacity {
			continue // degenerate: nothing fits
		}
		for c.used+c.pageSize > c.capacity {
			c.evictOldest()
		}
		// Looked up after the evictions, which may have emptied and
		// recycled the very chunk (or file) idx belongs to.
		pg, ch := c.freePages.Pop(), c.chunkOf(ino, idx, true)
		if pg == nil {
			pg = c.pageArena.cut()
		}
		pg.idx, pg.chunk = idx, ch
		ch.slots[idx&(chunkPages-1)] = pg
		c.pushFront(pg)
		c.used += c.pageSize
	}
}

func (c *Cache) evictOldest() {
	pg := c.root.prev
	if pg == &c.root {
		panic("pagecache: eviction from empty cache")
	}
	c.removePage(pg)
	c.Evictions++
}

// removePage drops pg from the cache and recycles it, and through its
// back-pointers the chunk it leaves empty and the file that leaves empty.
func (c *Cache) removePage(pg *page) {
	ch := pg.chunk
	if c.OnRemove != nil {
		c.OnRemove(ch.file.ino, pg.idx)
	}
	ch.slots[pg.idx&(chunkPages-1)] = nil
	c.unlink(pg)
	c.freePages.Push(pg)
	c.used -= c.pageSize
	if ch.slots != ([chunkPages]*page{}) {
		return
	}
	f := ch.file
	delete(f.chunks, ch.num)
	if f.last == ch {
		f.last = nil
	}
	c.freeChunks.Push(ch)
	if len(f.chunks) > 0 {
		return
	}
	delete(c.files, f.ino)
	c.freeFiles.Push(f)
}

// InvalidateFile drops every cached page of ino, a chunk at a time.
func (c *Cache) InvalidateFile(ino uint64) {
	for f := c.files[ino]; f != nil; f = c.files[ino] {
		ch := f.last
		for _, ch = range f.chunks {
			break
		}
		for _, pg := range ch.slots {
			if pg != nil {
				c.removePage(pg)
			}
		}
	}
}

// InvalidateRange drops cached pages overlapping [off, off+size) of ino.
// It walks the file's resident chunks, not the range's page indexes: a
// truncate of a sparse file covers up to 2^51 pages and holds a handful.
// Which chunk goes first shows nowhere — the pages that stay keep their
// LRU order, and recycled nodes are interchangeable.
func (c *Cache) InvalidateRange(ino uint64, off, size int64) {
	f := c.files[ino]
	if size <= 0 || f == nil {
		return
	}
	lo, hi := c.pageSpan(off, size)
	drop := func(ch *chunk) {
		for _, pg := range ch.slots {
			if pg != nil && lo <= pg.idx && pg.idx < hi {
				c.removePage(pg)
			}
		}
	}
	if len(f.chunks) == 0 {
		drop(f.last) // a file with no chunk map has exactly this chunk
		return
	}
	for _, ch := range f.chunks {
		drop(ch)
	}
}

// Clear empties the cache (e.g. an unmount/remount for a cold-cache run).
func (c *Cache) Clear() {
	c.root.prev, c.root.next = &c.root, &c.root
	c.files = make(map[uint64]*file)
	c.freePages, c.freeChunks, c.freeFiles = nil, nil, nil
	c.pageArena, c.chunkArena = arena[page]{}, arena[chunk]{}
	c.used = 0
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
