package memcache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"imca/internal/blob"
)

// TestEntryLayout pins what a resident item costs the host: a 104-byte
// entry, whose chain step — hash, hnext, the key's slot and length — sits
// in its first 16 bytes, and a 96-byte Item for what callers store and
// read. The key's bytes are in the store's key pages.
func TestEntryLayout(t *testing.T) {
	var e entry
	if got := unsafe.Sizeof(e); got > 104 {
		t.Errorf("entry is %d bytes, want at most 104", got)
	}
	if end := unsafe.Offsetof(e.klen) + unsafe.Sizeof(e.klen); unsafe.Offsetof(e.hash) != 0 || unsafe.Offsetof(e.hnext) != 4 ||
		unsafe.Offsetof(e.key) != 8 || end != 16 {
		t.Errorf("a chain step reads hash at %d, hnext at %d and the key's slot at %d and length up to %d; want 0, 4, 8 and 16",
			unsafe.Offsetof(e.hash), unsafe.Offsetof(e.hnext), unsafe.Offsetof(e.key), end)
	}
	if got := unsafe.Sizeof(Item{}); got != 96 {
		t.Errorf("Item is %d bytes, want 96", got)
	}
}

func fixedClock() func() int64 {
	t := int64(1000)
	return func() int64 { return t }
}

func newTestStore(limitMB int64) *Store {
	return NewStore(limitMB<<20, fixedClock())
}

func bval(s string) blob.Blob { return blob.FromString(s) }

func TestSetGetRoundTrip(t *testing.T) {
	s := newTestStore(4)
	if err := s.Set(&Item{Key: "k", Value: bval("v"), Flags: 7}); err != nil {
		t.Fatal(err)
	}
	it, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value.Bytes()) != "v" || it.Flags != 7 {
		t.Errorf("got %q flags %d", it.Value.Bytes(), it.Flags)
	}
}

func TestGetMissing(t *testing.T) {
	s := newTestStore(4)
	if _, err := s.Get("nope"); err != ErrCacheMiss {
		t.Errorf("err = %v, want ErrCacheMiss", err)
	}
	st := s.Stats()
	if st.GetMisses != 1 || st.GetHits != 0 {
		t.Errorf("stats hits/misses = %d/%d, want 0/1", st.GetHits, st.GetMisses)
	}
}

func TestSetOverwrites(t *testing.T) {
	s := newTestStore(4)
	s.Set(&Item{Key: "k", Value: bval("one")})
	s.Set(&Item{Key: "k", Value: bval("two")})
	it, _ := s.Get("k")
	if string(it.Value.Bytes()) != "two" {
		t.Errorf("got %q, want two", it.Value.Bytes())
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestAddOnlyWhenAbsent(t *testing.T) {
	s := newTestStore(4)
	if err := s.Add(&Item{Key: "k", Value: bval("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&Item{Key: "k", Value: bval("b")}); err != ErrNotStored {
		t.Errorf("second add err = %v, want ErrNotStored", err)
	}
}

func TestReplaceOnlyWhenPresent(t *testing.T) {
	s := newTestStore(4)
	if err := s.Replace(&Item{Key: "k", Value: bval("a")}); err != ErrNotStored {
		t.Errorf("replace of absent err = %v, want ErrNotStored", err)
	}
	s.Set(&Item{Key: "k", Value: bval("a")})
	if err := s.Replace(&Item{Key: "k", Value: bval("b")}); err != nil {
		t.Errorf("replace of present err = %v", err)
	}
}

func TestAppendPrepend(t *testing.T) {
	s := newTestStore(4)
	if err := s.Append("k", bval("x")); err != ErrNotStored {
		t.Errorf("append to absent = %v, want ErrNotStored", err)
	}
	s.Set(&Item{Key: "k", Value: bval("mid")})
	s.Append("k", bval("-end"))
	s.Prepend("k", bval("start-"))
	it, _ := s.Get("k")
	if got := string(it.Value.Bytes()); got != "start-mid-end" {
		t.Errorf("got %q, want start-mid-end", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := newTestStore(4)
	item := &Item{Key: "k", Value: bval("v1")}
	s.Set(item)
	first, _ := s.Get("k")

	// Successful CAS with the current token.
	if err := s.CompareAndSwap(&Item{Key: "k", Value: bval("v2"), CAS: first.CAS}); err != nil {
		t.Fatalf("cas err = %v", err)
	}
	// Reusing the stale token must conflict.
	if err := s.CompareAndSwap(&Item{Key: "k", Value: bval("v3"), CAS: first.CAS}); err != ErrExists {
		t.Errorf("stale cas err = %v, want ErrExists", err)
	}
	if err := s.CompareAndSwap(&Item{Key: "absent", Value: bval("x"), CAS: 1}); err != ErrCacheMiss {
		t.Errorf("cas on absent err = %v, want ErrCacheMiss", err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(4)
	s.Set(&Item{Key: "k", Value: bval("v")})
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != ErrCacheMiss {
		t.Error("key present after delete")
	}
	if err := s.Delete("k"); err != ErrCacheMiss {
		t.Errorf("second delete err = %v, want ErrCacheMiss", err)
	}
}

func TestLazyExpiration(t *testing.T) {
	now := int64(1000)
	s := NewStore(4<<20, func() int64 { return now })
	s.Set(&Item{Key: "k", Value: bval("v"), Expiration: 1005})
	if _, err := s.Get("k"); err != nil {
		t.Fatal("item expired early")
	}
	now = 1005
	if _, err := s.Get("k"); err != ErrCacheMiss {
		t.Error("item not lazily expired at its deadline")
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
}

func TestExpiredKeyAllowsAdd(t *testing.T) {
	now := int64(1000)
	s := NewStore(4<<20, func() int64 { return now })
	s.Set(&Item{Key: "k", Value: bval("old"), Expiration: 1001})
	now = 2000
	if err := s.Add(&Item{Key: "k", Value: bval("new")}); err != nil {
		t.Errorf("add over expired item err = %v", err)
	}
}

func TestKeyValidation(t *testing.T) {
	s := newTestStore(4)
	bad := []string{"", strings.Repeat("x", MaxKeyLen+1), "has space", "has\nnewline", "ctrl\x01char"}
	for _, k := range bad {
		if err := s.Set(&Item{Key: k, Value: bval("v")}); err != ErrBadKey {
			t.Errorf("key %q: err = %v, want ErrBadKey", k, err)
		}
	}
	longest := strings.Repeat("k", MaxKeyLen)
	if err := s.Set(&Item{Key: longest, Value: bval("v")}); err != nil {
		t.Errorf("max-length key rejected: %v", err)
	}
}

func TestValueTooLarge(t *testing.T) {
	s := newTestStore(64)
	if err := s.Set(&Item{Key: "big", Value: blob.Synthetic(1, 0, MaxValueLen+1)}); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// Exactly 1MB of value exceeds the largest chunk once key+overhead are
	// added, matching memcached's practical sub-1MB item bound.
	if err := s.Set(&Item{Key: "edge", Value: blob.Synthetic(1, 0, MaxValueLen)}); err != ErrTooLarge {
		t.Errorf("1MB value err = %v, want ErrTooLarge (item overhead)", err)
	}
	if err := s.Set(&Item{Key: "fits", Value: blob.Synthetic(1, 0, MaxValueLen-256)}); err != nil {
		t.Errorf("just-under-1MB value rejected: %v", err)
	}
}

func TestLRUEvictionWithinClass(t *testing.T) {
	// 2MB store, ~64KB values: a few dozen fit; inserting more evicts the
	// least recently used.
	s := NewStore(2<<20, fixedClock())
	valSize := int64(60 << 10)
	var keys []string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := s.Set(&Item{Key: k, Value: blob.Synthetic(uint64(i), 0, valSize)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if s.Stats().Evictions > 0 {
			break
		}
		if i > 1000 {
			t.Fatal("no eviction after 1000 inserts")
		}
	}
	// The very first key inserted must be the evicted one.
	if _, err := s.Get(keys[0]); err != ErrCacheMiss {
		t.Error("oldest item survived eviction")
	}
	if _, err := s.Get(keys[len(keys)-1]); err != nil {
		t.Error("newest item was evicted")
	}
}

func TestGetFreshensLRU(t *testing.T) {
	s := NewStore(2<<20, fixedClock())
	valSize := int64(60 << 10)
	n := 0
	for ; ; n++ {
		k := fmt.Sprintf("key-%04d", n)
		if err := s.Set(&Item{Key: k, Value: blob.Synthetic(uint64(n), 0, valSize)}); err != nil {
			t.Fatal(err)
		}
		// Keep key-0000 hot.
		if _, err := s.Get("key-0000"); err != nil {
			t.Fatalf("hot key evicted at n=%d", n)
		}
		if s.Stats().Evictions > 3 {
			break
		}
		if n > 1000 {
			t.Fatal("no eviction after 1000 inserts")
		}
	}
}

func TestIncrDecr(t *testing.T) {
	s := newTestStore(4)
	s.Set(&Item{Key: "n", Value: bval("10")})
	if v, err := s.IncrDecr("n", 5, true); err != nil || v != 15 {
		t.Errorf("incr = %d,%v want 15,nil", v, err)
	}
	if v, err := s.IncrDecr("n", 100, false); err != nil || v != 0 {
		t.Errorf("decr below zero = %d,%v want 0,nil (floors)", v, err)
	}
	if _, err := s.IncrDecr("absent", 1, true); err != ErrCacheMiss {
		t.Errorf("incr absent err = %v, want ErrCacheMiss", err)
	}
	s.Set(&Item{Key: "s", Value: bval("abc")})
	if _, err := s.IncrDecr("s", 1, true); err != ErrNotNumeric {
		t.Errorf("incr non-numeric err = %v, want ErrNotNumeric", err)
	}
}

// TestIncrDecrRefusesLongValueCheaply: an incr on a large value that is no
// number is refused at its first byte, without building the value's bytes:
// a few small allocations at most, not 400 KB of them.
func TestIncrDecrRefusesLongValueCheaply(t *testing.T) {
	s := newTestStore(4)
	var v blob.Blob
	for seed := uint64(1); ; seed++ {
		if v = blob.Synthetic(seed, 0, 400<<10); v.At(0) < '0' || v.At(0) > '9' {
			break
		}
	}
	if err := s.Set(&Item{Key: "big", Value: v}); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	incr := func() {
		if _, err := s.IncrDecr("big", 1, true); err != ErrNotNumeric {
			t.Fatalf("incr of a non-numeric value: err %v, want ErrNotNumeric", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		incr()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 1<<10 {
		t.Errorf("refusing a 400 KB non-numeric value allocated %d bytes, want under 1 KB", bytes)
	}
	if allocs := testing.AllocsPerRun(runs, incr); allocs > 2 {
		t.Errorf("refusing a 400 KB non-numeric value allocated %.0f times, want at most 2", allocs)
	}
}

// TestParseUintBlobMatchesParseUint: the value parser accepts exactly what
// the wire parser does, leading zeros of any length and the overflow edge
// included.
func TestParseUintBlobMatchesParseUint(t *testing.T) {
	for _, in := range []string{
		"", "0", "7", "00000000000000000000000000042", "18446744073709551615",
		"18446744073709551616", "99999999999999999999", "-1", "+1", "1 ", " 1", "12a", "a12",
	} {
		want, wantOK := parseUint([]byte(in))
		for _, b := range []blob.Blob{blob.FromBytes([]byte(in)), blob.Concat(bval(in[:len(in)/2]), bval(in[len(in)/2:]))} {
			if got, ok := parseUintBlob(b); got != want || ok != wantOK {
				t.Errorf("parseUintBlob(%q) = %d, %v; parseUint = %d, %v", in, got, ok, want, wantOK)
			}
		}
	}
}

func TestFlushAll(t *testing.T) {
	s := newTestStore(4)
	for i := 0; i < 10; i++ {
		s.Set(&Item{Key: fmt.Sprintf("k%d", i), Value: bval("v")})
	}
	s.FlushAll()
	if s.Len() != 0 {
		t.Errorf("len after flush = %d", s.Len())
	}
	if st := s.Stats(); st.CurrItems != 0 || st.Bytes != 0 {
		t.Errorf("stats after flush: items=%d bytes=%d", st.CurrItems, st.Bytes)
	}
}

// TestGetMulti: a get of several keys, the daemons' one multi-key read,
// answers the present keys in request order and counts every key asked.
func TestGetMulti(t *testing.T) {
	s := newTestStore(4)
	s.Set(&Item{Key: "a", Value: bval("1")})
	s.Set(&Item{Key: "c", Value: bval("3")})
	if got, want := talkTo(t, s, "get c b a\r\n"), "VALUE c 0 1\r\n3\r\nVALUE a 0 1\r\n1\r\nEND\r\n"; got != want {
		t.Errorf("get c b a = %q, want %q", got, want)
	}
	if st := s.Stats(); st.CmdGet != 3 || st.GetHits != 2 || st.GetMisses != 1 {
		t.Errorf("stats after a 3-key get: %d gets, %d hits, %d misses; want 3, 2, 1", st.CmdGet, st.GetHits, st.GetMisses)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newTestStore(4)
	s.Set(&Item{Key: "k", Value: bval("hello")})
	s.Get("k")
	s.Get("miss")
	st := s.Stats()
	if st.CmdSet != 1 || st.CmdGet != 2 || st.GetHits != 1 || st.GetMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != itemSize("k", bval("hello")) {
		t.Errorf("bytes = %d, want %d", st.Bytes, itemSize("k", bval("hello")))
	}
	if st.TotalItems != 1 || st.CurrItems != 1 {
		t.Errorf("items = %d/%d, want 1/1", st.CurrItems, st.TotalItems)
	}
}

func TestSlabClassMonotonic(t *testing.T) {
	s := newTestStore(4)
	prev := int64(0)
	for _, c := range s.classes {
		if c.chunkSize <= prev {
			t.Fatalf("chunk sizes not strictly increasing: %d after %d", c.chunkSize, prev)
		}
		prev = c.chunkSize
	}
	if s.classes[len(s.classes)-1].chunkSize != slabPageSize {
		t.Errorf("largest class %d, want %d", prev, slabPageSize)
	}
	if s.classFor(MaxValueLen+itemOverhead+MaxKeyLen) != -1 {
		t.Error("oversized item mapped to a class")
	}
	if s.classFor(1) != 0 {
		t.Error("tiny item not in the smallest class")
	}
}

// Property: the store never exceeds its byte limit in slab pages and item
// accounting stays consistent across random workloads.
func TestPropertyMemoryBounded(t *testing.T) {
	f := func(ops []uint32) bool {
		limit := int64(2 << 20)
		s := NewStore(limit, fixedClock())
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%37)
			size := int64(op % 5000)
			switch op % 3 {
			case 0, 1:
				s.Set(&Item{Key: key, Value: blob.Synthetic(uint64(op), 0, size)})
			case 2:
				s.Delete(key)
			}
			if s.alloced > limit {
				return false
			}
			if int(s.stats.CurrItems) != len(s.Keys()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a set followed by a get always returns the stored bytes (when
// the item fits).
func TestPropertySetGetFidelity(t *testing.T) {
	f := func(keyRaw uint16, seed uint64, sizeRaw uint16) bool {
		s := newTestStore(8)
		key := fmt.Sprintf("key-%d", keyRaw)
		v := blob.Synthetic(seed, 0, int64(sizeRaw))
		if err := s.Set(&Item{Key: key, Value: v}); err != nil {
			return false
		}
		it, err := s.Get(key)
		return err == nil && it.Value.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlabStats(t *testing.T) {
	s := newTestStore(8)
	s.Set(&Item{Key: "tiny", Value: bval("x")})
	s.Set(&Item{Key: "big", Value: blob.Synthetic(1, 0, 50_000)})
	classes := s.SlabStats()
	if len(classes) < 2 {
		t.Fatalf("slab stats cover %d classes, want >=2", len(classes))
	}
	var sawTiny, sawBig bool
	for _, c := range classes {
		if c.UsedChunks > 0 && c.ChunkSize < 1024 {
			sawTiny = true
		}
		if c.UsedChunks > 0 && c.ChunkSize >= 50_000 {
			sawBig = true
		}
	}
	if !sawTiny || !sawBig {
		t.Errorf("classes missing occupancy: %+v", classes)
	}
}

// TestRecycledEntryDoesNotAlias is the guard for entry and chunk recycling,
// on every kind of store: what Get and GetView hand out are copies, so they
// keep their key and value after the key is evicted and its entry, and its
// chunk, reused for another key. The second half runs readers against an
// evicting writer, so that under -race a store pointer escaping through
// either getter is reported as the race it is.
func TestRecycledEntryDoesNotAlias(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.new(1<<20, func() int64 { return 0 })
			defer s.release()
			testRecycledEntryDoesNotAlias(t, s)
		})
	}
}

func testRecycledEntryDoesNotAlias(t *testing.T, s *Store) {
	val := func(i int) blob.Blob { return literal(uint64(i+1), 100<<10) }
	if err := s.Set(&Item{Key: "victim", Value: val(0), Flags: 42}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("victim")
	var scratch []byte
	view, ok := s.GetView([]byte("victim"), &scratch)
	if err != nil || !ok {
		t.Fatalf("victim not stored: %v, %v", err, ok)
	}
	for i := 1; s.Stats().Evictions == 0; i++ {
		if err := s.Set(&Item{Key: fmt.Sprintf("usurper%d", i), Value: val(i), Flags: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("victim"); err != ErrCacheMiss {
		t.Fatalf("victim survived the eviction: %v", err)
	}
	view.Key = "victim" // GetView's item has no key: the caller holds it
	for name, it := range map[string]Item{"Get": *got, "GetView": view} {
		if it.Key != "victim" || it.Flags != 42 || !it.Value.Equal(val(0)) {
			t.Errorf("the item %s returned changed when its entry was reused: key %q flags %d", name, it.Key, it.Flags)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("churn%d", i%16)
				if it, err := s.Get(key); err == nil && (it.Key != key || it.Value.Len() != 100<<10) {
					t.Errorf("Get(%s) returned %q, %d bytes", key, it.Key, it.Value.Len())
				}
				if it, ok := s.GetView([]byte(key), nil); ok && (it.Key != "" || it.Value.Len() != 100<<10) {
					t.Errorf("GetView(%s) returned %q, %d bytes", key, it.Key, it.Value.Len())
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if err := s.Set(&Item{Key: fmt.Sprintf("churn%d", i%16), Value: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
