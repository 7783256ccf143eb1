// Package pagecache implements an OS buffer cache model: a byte-capacity
// bounded LRU of fixed-size pages keyed by (file, page index).
//
// It tracks only presence, not contents — in the simulation, data contents
// travel as blobs while the cache decides whether an access hits memory or
// must go to the disk model. The same structure serves as the server's
// buffer cache (GlusterFS/NFS experiments) and as each Lustre client's
// local cache.
package pagecache

import "imca/internal/telemetry"

// Range is a byte extent within a file.
type Range struct {
	Off, Len int64
}

// End returns the first byte past the range.
func (r Range) End() int64 { return r.Off + r.Len }

type key struct {
	ino uint64
	idx int64
}

// page is one cached page: its key plus the links of the intrusive LRU
// ring. Evicted and invalidated pages go onto the cache's free list (linked
// through next) and are reused by the next insert, so a cache running at
// capacity — the steady state of every streaming workload — inserts without
// allocating.
type page struct {
	key        key
	prev, next *page
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
	root    page
	free    *page
	pages   map[key]*page
	perFile map[uint64]map[int64]struct{}

	Hits, Misses, Evictions uint64

	// FillHist, when registered, receives the disk-fill latency of each
	// miss repaired by the cache's owner (the posix xlator observes into
	// it — the cache itself has no clock). Nil is a no-op.
	FillHist *telemetry.Hist
}

// New returns a cache bounded to capacity bytes of pageSize pages.
func New(capacity, pageSize int64) *Cache {
	if pageSize <= 0 || capacity < 0 {
		panic("pagecache: bad geometry")
	}
	c := &Cache{
		pageSize: pageSize,
		capacity: capacity,
		pages:    make(map[key]*page),
		perFile:  make(map[uint64]map[int64]struct{}),
	}
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

// PageSize returns the page size.
func (c *Cache) PageSize() int64 { return c.pageSize }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return len(c.pages) }

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
		if pg, ok := c.pages[key{ino, idx}]; ok {
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
		if _, ok := c.pages[key{ino, idx}]; !ok {
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
		k := key{ino, idx}
		if pg, ok := c.pages[k]; ok {
			c.touch(pg)
			continue
		}
		if c.pageSize > c.capacity {
			continue // degenerate: nothing fits
		}
		for c.used+c.pageSize > c.capacity {
			c.evictOldest()
		}
		pg := c.free
		if pg != nil {
			c.free = pg.next
		} else {
			pg = new(page)
		}
		pg.key = k
		c.pushFront(pg)
		c.pages[k] = pg
		c.used += c.pageSize
		f := c.perFile[ino]
		if f == nil {
			f = make(map[int64]struct{})
			c.perFile[ino] = f
		}
		f[idx] = struct{}{}
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

// removePage drops pg from the cache and parks it on the free list.
func (c *Cache) removePage(pg *page) {
	k := pg.key
	c.unlink(pg)
	pg.prev, pg.next = nil, c.free
	c.free = pg
	delete(c.pages, k)
	c.used -= c.pageSize
	if f := c.perFile[k.ino]; f != nil {
		delete(f, k.idx)
		if len(f) == 0 {
			delete(c.perFile, k.ino)
		}
	}
}

// InvalidateFile drops every cached page of ino.
func (c *Cache) InvalidateFile(ino uint64) {
	f := c.perFile[ino]
	for idx := range f {
		if pg, ok := c.pages[key{ino, idx}]; ok {
			c.removePage(pg)
		}
	}
}

// InvalidateRange drops cached pages overlapping [off, off+size) of ino.
func (c *Cache) InvalidateRange(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if pg, ok := c.pages[key{ino, idx}]; ok {
			c.removePage(pg)
		}
	}
}

// Clear empties the cache (e.g. an unmount/remount for a cold-cache run).
func (c *Cache) Clear() {
	c.root.prev, c.root.next = &c.root, &c.root
	c.free = nil
	c.pages = make(map[key]*page)
	c.perFile = make(map[uint64]map[int64]struct{})
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
