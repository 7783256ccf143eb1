package pagecache

import (
	"cmp"
	"container/list"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := New(1<<20, 4096)
	missing := c.Lookup(1, 0, 4096)
	if len(missing) != 1 || missing[0] != (Range{0, 4096}) {
		t.Fatalf("missing = %v, want one full page", missing)
	}
	c.Insert(1, 0, 4096)
	if got := c.Lookup(1, 0, 4096); len(got) != 0 {
		t.Errorf("after insert still missing %v", got)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestUnalignedLookupCoversPages(t *testing.T) {
	c := New(1<<20, 4096)
	// Bytes [4000, 4200) touch pages 0 and 1.
	missing := c.Lookup(1, 4000, 200)
	if len(missing) != 1 {
		t.Fatalf("missing = %v, want one coalesced range", missing)
	}
	if missing[0] != (Range{0, 8192}) {
		t.Errorf("missing = %v, want [0,8192)", missing[0])
	}
}

func TestPartialHitReturnsHoles(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 4096, 4096) // page 1 only
	missing := c.Lookup(1, 0, 12288)
	if len(missing) != 2 {
		t.Fatalf("missing = %v, want two holes", missing)
	}
	if missing[0] != (Range{0, 4096}) || missing[1] != (Range{8192, 4096}) {
		t.Errorf("missing = %v, want pages 0 and 2", missing)
	}
}

func TestFilesAreIndependent(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 4096)
	if got := c.Lookup(2, 0, 4096); len(got) != 1 {
		t.Errorf("file 2 hit on file 1's page")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3*4096, 4096) // 3 pages
	c.Insert(1, 0, 3*4096) // pages 0,1,2
	c.Lookup(1, 0, 4096)   // freshen page 0
	c.Insert(1, 3*4096, 4096)
	// Page 1 was least recently used; page 0 was freshened.
	if !c.Contains(1, 0, 4096) {
		t.Error("freshened page 0 was evicted")
	}
	if c.Contains(1, 4096, 4096) {
		t.Error("LRU page 1 survived eviction")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(10*4096, 4096)
	for i := int64(0); i < 100; i++ {
		c.Insert(uint64(i%7), i*4096, 4096)
		if c.Used() > 10*4096 {
			t.Fatalf("used %d exceeds capacity", c.Used())
		}
	}
	if c.Len() != 10 {
		t.Errorf("len = %d, want 10", c.Len())
	}
}

func TestInsertLargerThanCapacityKeepsSubset(t *testing.T) {
	c := New(4*4096, 4096)
	c.Insert(1, 0, 16*4096)
	if c.Used() != 4*4096 {
		t.Errorf("used = %d, want full capacity", c.Used())
	}
	// The most recently inserted pages survive.
	if !c.Contains(1, 12*4096, 4*4096) {
		t.Error("tail pages not resident after streaming insert")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 8*4096)
	c.Insert(2, 0, 4*4096)
	c.InvalidateFile(1)
	if c.Contains(1, 0, 4096) {
		t.Error("file 1 pages survived InvalidateFile")
	}
	if !c.Contains(2, 0, 4*4096) {
		t.Error("file 2 pages lost by file 1 invalidation")
	}
	if c.Used() != 4*4096 {
		t.Errorf("used = %d, want %d", c.Used(), 4*4096)
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 4*4096)
	c.InvalidateRange(1, 4096, 4096)
	if c.Contains(1, 4096, 4096) {
		t.Error("invalidated page still present")
	}
	if !c.Contains(1, 0, 4096) || !c.Contains(1, 8192, 8192) {
		t.Error("neighboring pages lost")
	}
}

// TestInvalidateRangeSparse: the cost follows the resident pages, not the
// range — probing 2^47 absent page indexes one by one would not return.
func TestInvalidateRangeSparse(t *testing.T) {
	c := New(1<<20, 4096)
	const idx = int64(1) << 47
	c.Insert(1, idx*4096, 4096)
	c.Insert(2, 0, 4096)
	c.InvalidateRange(1, 10, idx*4096+4096-10)
	if c.Contains(1, idx*4096, 4096) {
		t.Error("page at index 2^47 survived the invalidation of its range")
	}
	c.InvalidateRange(2, 4096, 1<<60)
	if !c.Contains(2, 0, 4096) {
		t.Error("page below the range lost")
	}
	c.InvalidateRange(2, 0, 1<<60)
	if c.Used() != 0 {
		t.Errorf("used = %d, want 0", c.Used())
	}
}

func TestClear(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 64*4096)
	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("after Clear used=%d len=%d", c.Used(), c.Len())
	}
	if c.Contains(1, 0, 4096) {
		t.Error("page present after Clear")
	}
	// Cache remains usable.
	c.Insert(1, 0, 4096)
	if !c.Contains(1, 0, 4096) {
		t.Error("insert after Clear failed")
	}
}

func TestZeroSizeOps(t *testing.T) {
	c := New(1<<20, 4096)
	if got := c.Lookup(1, 100, 0); got != nil {
		t.Errorf("zero-size lookup = %v, want nil", got)
	}
	c.Insert(1, 100, 0)
	if c.Len() != 0 {
		t.Error("zero-size insert cached a page")
	}
	if !c.Contains(1, 100, 0) {
		t.Error("zero-size Contains should be true")
	}
}

func TestHitRate(t *testing.T) {
	c := New(1<<20, 4096)
	if c.HitRate() != 0 {
		t.Error("hit rate before lookups should be 0")
	}
	c.Insert(1, 0, 4096)
	c.Lookup(1, 0, 4096)    // hit
	c.Lookup(1, 4096, 4096) // miss
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %f, want 0.5", got)
	}
}

// Property: after Insert of an extent, Lookup of any sub-extent reports no
// missing pages.
func TestPropertyInsertCoversLookups(t *testing.T) {
	f := func(offRaw, sizeRaw uint16, subOff, subLen uint16) bool {
		c := New(1<<30, 4096)
		off := int64(offRaw)
		size := int64(sizeRaw%8192) + 1
		c.Insert(9, off, size)
		lo := off + int64(subOff)%size
		maxLen := off + size - lo
		l := int64(subLen)%maxLen + 1
		return len(c.Lookup(9, lo, l)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: used bytes always equal page count * page size and never exceed
// capacity.
func TestPropertyAccounting(t *testing.T) {
	f := func(ops []uint32) bool {
		const cap = 16 * 4096
		c := New(cap, 4096)
		for _, op := range ops {
			ino := uint64(op % 5)
			off := int64(op>>3) % (1 << 20)
			switch op % 4 {
			case 0, 1:
				c.Insert(ino, off, int64(op%9000)+1)
			case 2:
				c.Lookup(ino, off, int64(op%9000)+1)
			case 3:
				c.InvalidateFile(ino)
			}
			if c.Used() != int64(c.Len())*4096 || c.Used() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A cold pass misses every page and a warm re-read hits every page; Clear
// (an unmount) returns the cache to cold behaviour but keeps the counters,
// which belong to the measurement, not the contents.
func TestWarmVsColdPasses(t *testing.T) {
	const (
		ino      = uint64(3)
		fileSize = int64(64 << 10)
		pageSize = int64(4096)
	)
	pages := uint64(fileSize / pageSize)
	c := New(1<<20, pageSize)

	for off := int64(0); off < fileSize; off += pageSize {
		if missing := c.Lookup(ino, off, pageSize); len(missing) == 0 {
			t.Fatalf("cold lookup at %d hit", off)
		}
		c.Insert(ino, off, pageSize)
	}
	if c.Hits != 0 || c.Misses != pages {
		t.Fatalf("cold pass: hits/misses = %d/%d, want 0/%d", c.Hits, c.Misses, pages)
	}

	for off := int64(0); off < fileSize; off += pageSize {
		if missing := c.Lookup(ino, off, pageSize); len(missing) != 0 {
			t.Fatalf("warm lookup at %d missed %v", off, missing)
		}
	}
	if c.Hits != pages || c.Misses != pages {
		t.Fatalf("warm pass: hits/misses = %d/%d, want %d/%d", c.Hits, c.Misses, pages, pages)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5 after one cold and one warm pass", got)
	}
	if c.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (file fits)", c.Evictions)
	}

	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("after Clear: used %d bytes, %d pages", c.Used(), c.Len())
	}
	if c.Hits != pages || c.Misses != pages {
		t.Errorf("Clear reset the counters: hits/misses = %d/%d", c.Hits, c.Misses)
	}
	if missing := c.Lookup(ino, 0, pageSize); len(missing) == 0 {
		t.Error("lookup after Clear hit")
	}
	if c.Misses != pages+1 {
		t.Errorf("misses = %d after post-Clear lookup, want %d", c.Misses, pages+1)
	}
}

// key names a page as the reference structures hold it.
type key struct {
	ino uint64
	idx int64
}

func (pg *page) key() key { return key{pg.chunk.file.ino, pg.idx} }

// listLRU is the cache as it was before the LRU became intrusive: a
// container/list of keys plus a map of elements, presence only. It is the
// reference the eviction-order test replays the same accesses against.
type listLRU struct {
	capPages int
	lru      *list.List
	pages    map[key]*list.Element
	evicted  []key
}

func (m *listLRU) lookup(k key) bool {
	el, ok := m.pages[k]
	if ok {
		m.lru.MoveToFront(el)
	}
	return ok
}

func (m *listLRU) insert(k key) {
	if el, ok := m.pages[k]; ok {
		m.lru.MoveToFront(el)
		return
	}
	for m.lru.Len() >= m.capPages {
		m.remove(m.lru.Back())
	}
	m.pages[k] = m.lru.PushFront(k)
}

func (m *listLRU) remove(el *list.Element) {
	k := m.lru.Remove(el).(key)
	delete(m.pages, k)
	m.evicted = append(m.evicted, k)
}

// TestEvictionOrderMatchesListLRU replays one seeded access string —
// lookups, inserts, range and whole-file invalidations over a working set
// several times the cache — against the cache and against the container/list
// LRU it replaced. Residency after every step, the hit/miss/eviction
// counters, and the order pages leave in must all agree: the free lists,
// the ring and the per-inode index change how pages are held, not which
// page goes next. The accesses mix the populations the index treats
// differently: four dense files, 4,096 one-page files (the posix layer's
// metadata pseudo-inodes), a file living above page index 2^40, and a file
// touched only at its two ends; invalidations empty chunks and whole files
// that later accesses re-insert. The index's own bookkeeping (files,
// chunks, slots) is recounted against the reference as it goes.
func TestEvictionOrderMatchesListLRU(t *testing.T) {
	const pageSize, capPages, files, pagesPerFile = 4096, 64, 4, 64
	c := New(capPages*pageSize, pageSize)
	ref := &listLRU{capPages: capPages, lru: list.New(), pages: make(map[key]*list.Element)}
	rng := rand.New(rand.NewSource(42))
	var hits, misses uint64
	// drain empties both caches by evicting, reporting the cache's victims
	// in order.
	victims := func() []key {
		var out []key
		for c.Len() > 0 {
			out = append(out, c.root.prev.key())
			c.evictOldest()
		}
		return out
	}
	// pick draws the next (file, page) from the mixed population.
	pick := func() (uint64, int64) {
		switch p := rng.Intn(100); {
		case p < 60:
			return uint64(1 + rng.Intn(files)), int64(rng.Intn(pagesPerFile))
		case p < 80:
			return uint64(1000 + rng.Intn(4096)), 0
		case p < 92:
			return 5, 1<<40 + int64(rng.Intn(pagesPerFile))
		default:
			return 6, int64(rng.Intn(2))<<44 + int64(rng.Intn(4))
		}
	}
	refilled := 0 // inserts into a file an invalidation had emptied
	emptied := map[uint64]bool{}
	for step := 0; step < 40000; step++ {
		ino, idx := pick()
		k := key{ino, idx}
		switch op := rng.Intn(100); {
		case op < 45:
			missing := c.Lookup(ino, idx*pageSize, pageSize)
			if ref.lookup(k) {
				hits++
			} else {
				misses++
			}
			if (len(missing) == 0) != (ref.pages[k] != nil) {
				t.Fatalf("step %d: lookup of %v disagrees with the list LRU", step, k)
			}
		case op < 95:
			evBefore, nBefore := c.Evictions, len(ref.evicted)
			if emptied[ino] {
				refilled++
				delete(emptied, ino)
			}
			c.Insert(ino, idx*pageSize, pageSize)
			ref.insert(k)
			if int(c.Evictions-evBefore) != len(ref.evicted)-nBefore {
				t.Fatalf("step %d: insert of %v evicted %d pages, the list LRU %d",
					step, k, c.Evictions-evBefore, len(ref.evicted)-nBefore)
			}
			for _, gone := range ref.evicted[nBefore:] {
				if c.Contains(gone.ino, gone.idx*pageSize, pageSize) {
					t.Fatalf("step %d: the list LRU evicted %v, the cache kept it", step, gone)
				}
			}
		case op < 98:
			c.InvalidateRange(ino, idx*pageSize, 3*pageSize)
			for i := idx; i < idx+3; i++ {
				if el, ok := ref.pages[key{ino, i}]; ok {
					ref.remove(el)
				}
			}
		default:
			c.InvalidateFile(ino)
			for rk, el := range ref.pages {
				if rk.ino == ino {
					ref.remove(el)
				}
			}
		}
		if c.Len() != ref.lru.Len() {
			t.Fatalf("step %d: %d pages cached, the list LRU holds %d", step, c.Len(), ref.lru.Len())
		}
		if c.files[ino] == nil {
			emptied[ino] = true
		}
		if step%97 == 0 {
			checkIndex(t, c, ref.pages)
		}
	}
	checkIndex(t, c, ref.pages)
	if refilled < 100 {
		t.Fatalf("only %d inserts re-created an emptied file; that path was not exercised", refilled)
	}
	if c.Hits != hits || c.Misses != misses {
		t.Errorf("hits/misses = %d/%d, the list LRU saw %d/%d", c.Hits, c.Misses, hits, misses)
	}
	if c.Evictions == 0 {
		t.Fatal("the access string never evicted")
	}
	// What is left must leave in the list LRU's order, oldest first.
	var want []key
	for el := ref.lru.Back(); el != nil; el = el.Prev() {
		want = append(want, el.Value.(key))
	}
	got := victims()
	if len(got) != len(want) {
		t.Fatalf("%d pages left to evict, the list LRU has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("eviction %d is %v, the list LRU's is %v", i, got[i], want[i])
		}
	}
}

// checkIndex recounts the per-inode index against the pages that should be
// resident: one file per inode with a resident page and none besides, one
// chunk per occupied run of chunkPages indexes, each page in its slot with
// its back-pointers right, and the counts on every node agreeing.
func checkIndex(t *testing.T, c *Cache, want map[key]*list.Element) {
	t.Helper()
	type chunkKey struct {
		ino uint64
		num int64
	}
	inos, chunks := map[uint64]int{}, map[chunkKey]int{}
	for k := range want {
		pg := c.find(k.ino, k.idx)
		if pg == nil || pg.key() != k || pg.chunk.slots[k.idx&(chunkPages-1)] != pg {
			t.Fatalf("page %v is resident in the reference but not indexed (found %v)", k, pg)
		}
		ck := chunkKey{k.ino, k.idx >> chunkShift}
		if chunks[ck] == 0 {
			inos[k.ino]++ // a chunk seen for the first time
		}
		chunks[ck]++
	}
	if len(c.files) != len(inos) {
		t.Fatalf("the index holds %d files, %d inodes have resident pages", len(c.files), len(inos))
	}
	for ino, f := range c.files {
		if f.ino != ino || (f.chunks != nil && len(f.chunks) != inos[ino]) || (f.chunks == nil && (inos[ino] != 1 || f.last == nil)) {
			t.Fatalf("file %d: ino %d, %d chunks mapped (last %v), want %d", ino, f.ino, len(f.chunks), f.last, inos[ino])
		}
	}
	for ck, n := range chunks {
		if ch := c.chunkOf(ck.ino, ck.num<<chunkShift, false); ch == nil || resident(ch) != n || ch.num != ck.num || ch.file != c.files[ck.ino] {
			t.Fatalf("chunk %v: %+v, want %d pages", ck, ch, n)
		}
	}
}

func resident(ch *chunk) (n int) {
	for _, pg := range ch.slots {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestSparsePageCostsOneChunk: a page a terabyte into a file costs what a
// page at offset 0 costs — a file, a chunk and a page — not an index
// proportional to the offset.
func TestSparsePageCostsOneChunk(t *testing.T) {
	var c *Cache
	at := func(off int64) (allocs float64, bytes uint64) {
		var before, after runtime.MemStats
		allocs = testing.AllocsPerRun(10, func() {
			c = New(1<<20, 4096)
			runtime.ReadMemStats(&before)
			c.Insert(1, off, 4096)
			runtime.ReadMemStats(&after)
		})
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	nearAllocs, nearBytes := at(0)
	farAllocs, farBytes := at(1 << 40)
	if !c.Contains(1, 1<<40, 4096) || c.Contains(1, 0, 4096) || c.Len() != 1 {
		t.Fatal("the page at 1 TB is not the one resident page")
	}
	if farAllocs != nearAllocs || farBytes != nearBytes || farBytes > 1024 {
		t.Errorf("a page at 1 TB cost %.0f allocations and %d bytes, one at 0 cost %.0f and %d; want the same, under 1 KB",
			farAllocs, farBytes, nearAllocs, nearBytes)
	}
}

// TestInsertAtCapacityAllocFree: once the cache is full, an insert reuses
// the page it evicts, and with it the chunk and the file that eviction
// emptied — the steady state of a streaming scan allocates nothing, pass
// after pass. The scan streams six 100-page files in turn through a
// 256-page cache, so chunks (100 is no multiple of chunkPages) and whole
// files die and are born in every pass.
func TestInsertAtCapacityAllocFree(t *testing.T) {
	const pageSize, capPages, files, pagesPerFile = 4096, 256, 6, 100
	c := New(capPages*pageSize, pageSize)
	next := int64(0)
	scan := func() {
		for i := 0; i < capPages; i++ {
			c.Insert(uint64(1+next/pagesPerFile), next%pagesPerFile*pageSize, pageSize)
			next = (next + 1) % (files * pagesPerFile)
		}
	}
	for i := 0; i < 8; i++ {
		scan() // fill, then let the maps reach their steady size
	}
	if c.Len() != capPages || c.Evictions == 0 {
		t.Fatalf("cache holds %d pages after %d evictions; not at capacity", c.Len(), c.Evictions)
	}
	if avg := testing.AllocsPerRun(50, scan); avg != 0 {
		t.Errorf("a %d-insert scan of a full cache allocated %.0f times, want 0", capPages, avg)
	}
}

// TestOnRemoveReportsEachPageOnce: every page that leaves the cache by
// eviction, InvalidateRange or InvalidateFile is reported to OnRemove
// exactly once, as it goes, and no other; Clear, an unmount, reports none.
func TestOnRemoveReportsEachPageOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *Cache)
		want []key
	}{
		{"eviction", func(c *Cache) { c.Insert(3, 0, 2*4096) }, []key{{1, 0}, {1, 1}}},
		{"InvalidateRange", func(c *Cache) { c.InvalidateRange(1, 4096, 2*4096) }, []key{{1, 1}, {1, 2}}},
		{"InvalidateFile", func(c *Cache) { c.InvalidateFile(2) }, []key{{2, 0}, {2, 9}}},
		{"Clear", func(c *Cache) { c.Clear() }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(6*4096, 4096)
			c.Insert(1, 0, 4*4096) // pages 0-3 of file 1, oldest first
			c.Insert(2, 0, 4096)
			c.Insert(2, 9*4096, 4096) // a second chunk of file 2
			var got []key
			c.OnRemove = func(ino uint64, idx int64) {
				if c.find(ino, idx) == nil {
					t.Errorf("page %v reported after it left the index", key{ino, idx})
				}
				got = append(got, key{ino, idx})
			}
			tc.op(c)
			slices.SortFunc(got, func(a, b key) int { return cmp.Or(cmp.Compare(a.ino, b.ino), cmp.Compare(a.idx, b.idx)) })
			if !slices.Equal(got, tc.want) {
				t.Errorf("reported %v, want %v", got, tc.want)
			}
			for _, k := range got {
				if c.Contains(k.ino, k.idx*4096, 4096) {
					t.Errorf("page %v reported removed but still cached", k)
				}
			}
		})
	}
}
