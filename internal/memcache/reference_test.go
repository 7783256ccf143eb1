package memcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"imca/internal/blob"
)

// The store against a reference model: the design the intrusive table
// replaced — a Go map from key to entry and a container-free list per slab
// class — kept here, unshared and unoptimised, as what every verb must still
// mean. A script is a byte string read three bytes at a time as (verb, key,
// value) choices; the fuzzer mutates it, the property test draws it from a
// seeded generator. Both stores run the script; every reply, and after
// every verb Stats() and Len(), must be equal, and whenever an item left by
// eviction or expiry — and every 32 verbs besides — Keys() and SlabStats()
// too, so a wrong eviction victim is caught at the verb that chose it. Each
// script runs on each kind of store (storeKinds). On one that owns its
// value bytes the values are literal bytes (see literal), and every value
// read is compared byte for byte, so a chunk handed out twice or cut in the
// wrong place shows as the value it tore.

// refItem and refStore are the model.
type refItem struct {
	Item
	class      int
	prev, next *refItem
}

func (it *refItem) expired(now int64) bool {
	return it.Expiration != 0 && it.Expiration <= now
}

type refClass struct {
	chunkSize, freeChunks int64
	head, tail            *refItem
}

type refStore struct {
	limit, alloced int64
	classes        []refClass
	table          map[string]*refItem
	cas            uint64
	now            func() int64
	stats          Stats
}

func newRefStore(limit int64, now func() int64) *refStore {
	r := &refStore{limit: limit, table: make(map[string]*refItem), now: now}
	r.stats.LimitBytes = limit
	for _, c := range NewStore(limit, now).classes { // the class sizes are not what is under test
		r.classes = append(r.classes, refClass{chunkSize: c.chunkSize})
	}
	return r
}

func (r *refStore) unlink(it *refItem) {
	c := &r.classes[it.class]
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		c.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		c.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

func (r *refStore) pushFront(it *refItem) {
	c := &r.classes[it.class]
	it.next = c.head
	if c.head != nil {
		c.head.prev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
}

func (r *refStore) remove(it *refItem) {
	delete(r.table, it.Key)
	r.unlink(it)
	r.classes[it.class].freeChunks++
	r.stats.CurrItems--
	r.stats.Bytes -= itemSize(it.Key, it.Value)
}

// live returns key's entry, first expiring it if its time has come.
func (r *refStore) live(key string) *refItem {
	it := r.table[key]
	if it != nil && it.expired(r.now()) {
		r.stats.Expired++
		r.remove(it)
		return nil
	}
	return it
}

func (r *refStore) reserve(ci int) error {
	c := &r.classes[ci]
	if c.freeChunks == 0 && r.alloced+slabPageSize <= r.limit {
		r.alloced += slabPageSize
		c.freeChunks += slabPageSize / c.chunkSize
	}
	for c.freeChunks == 0 {
		if c.tail == nil {
			return ErrTooLarge
		}
		if c.tail.expired(r.now()) {
			r.stats.Expired++
		} else {
			r.stats.Evictions++
		}
		r.remove(c.tail)
	}
	c.freeChunks--
	return nil
}

func (r *refStore) insert(item *Item, old *refItem) error {
	size := itemSize(item.Key, item.Value)
	ci := -1
	for i := range r.classes {
		if size <= r.classes[i].chunkSize {
			ci = i
			break
		}
	}
	if ci < 0 {
		return ErrTooLarge
	}
	if old != nil {
		r.remove(old)
	}
	if err := r.reserve(ci); err != nil {
		return err
	}
	r.cas++
	item.CAS = r.cas
	it := &refItem{Item: *item, class: ci}
	r.table[item.Key] = it
	r.pushFront(it)
	r.stats.CurrItems++
	r.stats.TotalItems++
	r.stats.Bytes += size
	return nil
}

func (r *refStore) store(item *Item, op verb) error {
	if !validKey(item.Key) {
		return ErrBadKey
	}
	if item.Value.Len() > MaxValueLen {
		return ErrTooLarge
	}
	r.stats.CmdSet++
	old := r.live(item.Key)
	switch {
	case op == verbAdd && old != nil, op == verbReplace && old == nil:
		return ErrNotStored
	case op == verbCAS && old == nil:
		return ErrCacheMiss
	case op == verbCAS && old.CAS != item.CAS:
		return ErrExists
	}
	return r.insert(item, old)
}

func (r *refStore) concat(key string, v blob.Blob, front bool) error {
	if !validKey(key) {
		return ErrBadKey
	}
	r.stats.CmdSet++
	old := r.live(key)
	if old == nil {
		return ErrNotStored
	}
	nv := blob.Concat(old.Value, v)
	if front {
		nv = blob.Concat(v, old.Value)
	}
	if nv.Len() > MaxValueLen {
		return ErrTooLarge
	}
	return r.insert(&Item{Key: key, Value: nv, Flags: old.Flags, Expiration: old.Expiration}, old)
}

func (r *refStore) get(key string) (Item, bool) {
	r.stats.CmdGet++
	it := r.live(key)
	if it == nil {
		r.stats.GetMisses++
		return Item{}, false
	}
	r.stats.GetHits++
	r.unlink(it)
	r.pushFront(it)
	return it.Item, true
}

func (r *refStore) delete(key string) error {
	it := r.live(key)
	if it == nil {
		r.stats.DeleteMiss++
		return ErrCacheMiss
	}
	r.remove(it)
	r.stats.DeleteHits++
	return nil
}

func (r *refStore) incrDecr(key string, delta uint64, incr bool) (uint64, error) {
	it := r.live(key)
	if it == nil {
		return 0, ErrCacheMiss
	}
	cur, ok := parseUint(it.Value.Bytes())
	if !ok {
		return 0, ErrNotNumeric
	}
	next := cur + delta
	if !incr {
		if next = cur - delta; delta > cur {
			next = 0
		}
	}
	nv := blob.FromBytes(strconv.AppendUint(nil, next, 10))
	if err := r.insert(&Item{Key: key, Value: nv, Flags: it.Flags, Expiration: it.Expiration}, it); err != nil {
		return 0, err
	}
	return next, nil
}

func (r *refStore) flushAll() {
	for _, it := range r.table {
		r.remove(it)
	}
}

func (r *refStore) keys() []string {
	out := make([]string, 0, len(r.table))
	for k := range r.table {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (r *refStore) slabStats() map[int]ClassStat {
	used := make(map[int]int64)
	for _, it := range r.table {
		used[it.class]++
	}
	out := make(map[int]ClassStat)
	for ci, c := range r.classes {
		if used[ci] != 0 || c.freeChunks != 0 {
			out[ci] = ClassStat{ChunkSize: c.chunkSize, UsedChunks: used[ci], FreeChunks: c.freeChunks}
		}
	}
	return out
}

// storeScriptLimit is low enough to evict: six slab pages, of which the
// script's four value sizes and two key lengths claim five or six.
const storeScriptLimit = 6 << 20

// scriptKey picks the verb's key: from a small alphabet every verb keeps
// hitting — it holds two keys with one FNV-1a hash, 0xaa0b0564, so a lookup
// that trusts the hash alone answers with the wrong item — or from a large
// one that grows the table; or, rarely, a key the store must refuse.
func scriptKey(a, b byte) string {
	switch {
	case a < 96:
		return [...]string{"key-901258", "key-1540052", "a", "b", "c", "d", "e", "f"}[a%8]
	case a == 255:
		return "bad key"
	default:
		return fmt.Sprintf("key-%d", int(a%64)<<8|int(b))
	}
}

// scriptValue picks the verb's value: a number, or bytes of one of three
// far-apart sizes (three more slab classes), or one over the limit, which
// mk makes from a seed of their own and their length.
func scriptValue(a, b byte, mk func(seed uint64, n int64) blob.Blob) blob.Blob {
	seed := uint64(a)<<8 | uint64(b)
	switch b % 8 {
	case 0, 1:
		return blob.FromString(strconv.Itoa(int(a)))
	case 2:
		return blob.FromString("18446744073709551615") // an incr from here wraps
	case 3, 4:
		return mk(seed, 900+int64(a%16))
	case 5:
		return mk(seed, 50_000+int64(a))
	case 6:
		return mk(seed, 400_000+int64(a))
	default:
		if a == 0 {
			return mk(seed, MaxValueLen+1)
		}
		return mk(seed, int64(a))
	}
}

// synthetic makes a script value as the simulator does, without its bytes.
func synthetic(seed uint64, n int64) blob.Blob { return blob.Synthetic(seed, 0, n) }

// literal makes a script value as a client sends one, in bytes: a window of
// literalBytes at the seed's own offset, so no two seeds' values agree, and
// a store that owns its value bytes copies the value in without first
// generating it.
func literal(seed uint64, n int64) blob.Blob {
	off := int64(seed) * 16 // below 1 MB: a seed is 16 bits
	return blob.FromBytes(literalBytes()[off : off+n])
}

var literalBytes = sync.OnceValue(func() []byte {
	b := make([]byte, 1<<20+MaxValueLen+1)
	rand.New(rand.NewSource(1)).Read(b)
	return b
})

// sameValue compares two values by length and by their first and last 64
// bytes: a script's values differ from their first byte (each has its own
// seed), and comparing 400 KB of synthetic bytes on every hit is what the
// property test would spend its time on — unless the store holds the bytes
// itself.
func sameValue(a, b blob.Blob) bool {
	n := a.Len()
	if n != b.Len() || n <= 128 {
		return a.Equal(b)
	}
	return a.Slice(0, 64).Equal(b.Slice(0, 64)) && a.Slice(n-64, n).Equal(b.Slice(n-64, n))
}

// sameBytes compares two values byte for byte.
func sameBytes(a, b blob.Blob) bool { return bytes.Equal(a.Bytes(), b.Bytes()) }

// storeKinds are the stores a script runs on: the simulated bank's, which
// keeps blobs by reference, and the TCP daemon's, which owns its value
// bytes, on slab pages mapped outside the heap and on heap pages, as where
// the system maps none. The last differs from the second only in where a
// chunk's page is found, so TestStoreMatchesReference runs it on the first
// scripts only.
var storeKinds = []struct {
	name    string
	new     func(limit int64, now func() int64) *Store
	owned   bool
	scripts int // of TestStoreMatchesReference's; 0 is all
}{
	{"blobs", NewStore, false, 0},
	{"mapped", newOwningStore, true, 0},
	{"heap-paged", newHeapPagedStore, true, 21},
}

// newHeapPagedStore is newOwningStore as it is where the system maps no
// memory: each slab page is allocated on the heap when it is granted.
func newHeapPagedStore(limit int64, now func() int64) *Store {
	s := newOwningStore(limit, now)
	if err := s.mem.release(); err != nil {
		panic(err)
	}
	return s
}

// scriptCoverage is what one script exercised.
type scriptCoverage struct {
	buckets   int // the table's largest size
	evictions uint64
	flushes   int
	classes   int // slab classes in use at the end
	// farEvictions counts evictions made while the store held entries
	// past its doubling arenas (more than doublingEntries at once).
	farEvictions uint64
}

// doublingArenas and doublingEntries are the arenas that double from
// minArena to maxArena, and the entries they hold: an index past them is
// in an arena of its own size.
const (
	doublingArenas  = 9
	doublingEntries = minArena * (1<<doublingArenas - 1)
)

// maxScriptVerbs cuts a script the fuzzer has grown: past it a run is mostly
// sorting key lists, and nothing new is reached that a shorter script cannot.
const maxScriptVerbs = 8192

// runStoreScript runs data on a store of kind k and on the model and fails
// t at the first verb whose outcome differs.
func runStoreScript(t testing.TB, k int, data []byte) (cov scriptCoverage) {
	clock := int64(1000)
	now := func() int64 { return clock }
	s, r := storeKinds[k].new(storeScriptLimit, now), newRefStore(storeScriptLimit, now)
	defer s.release()
	sameValue, mk := sameValue, synthetic
	if storeKinds[k].owned {
		sameValue, mk = sameBytes, literal
	}
	tokens := map[string]uint64{} // the CAS each key's last hit reported
	var leftBefore uint64         // Evictions + Expired after the previous verb
	var scratch []byte            // GetView's

	sameItem := func(step int, what string, got Item, gotOK bool, want Item, wantOK bool) {
		if gotOK != wantOK || got.Key != want.Key || got.Flags != want.Flags || got.Expiration != want.Expiration ||
			got.CAS != want.CAS || !sameValue(got.Value, want.Value) {
			t.Fatalf("verb %d %s: store returned %v key %q flags %d exp %d cas %d (%d bytes), model %v key %q flags %d exp %d cas %d (%d bytes)",
				step, what, gotOK, got.Key, got.Flags, got.Expiration, got.CAS, got.Value.Len(),
				wantOK, want.Key, want.Flags, want.Expiration, want.CAS, want.Value.Len())
		}
	}
	sameErr := func(step int, what string, got, want error) {
		if got != want {
			t.Fatalf("verb %d %s: store replied %v, model %v", step, what, got, want)
		}
	}
	sameContents := func(step int, what string) {
		// The store's keys equal the model's sorted keys: as many, each
		// in the model, each above the last — no sort on the model side.
		got := s.Keys()
		same := len(got) == len(r.table)
		for i := 0; same && i < len(got); i++ {
			same = r.table[got[i]] != nil && (i == 0 || got[i-1] < got[i])
		}
		if !same {
			want := r.keys()
			t.Fatalf("verb %d %s: store holds %d keys, model %d:\n store %q\n model %q", step, what, len(got), len(want), got, want)
		}
		if got, want := s.SlabStats(), r.slabStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("verb %d %s: SlabStats %v, model %v", step, what, got, want)
		}
	}

	for step := 0; len(data) >= 3; step++ {
		verb, a, b := data[0]%16, data[1], data[2]
		data = data[3:]
		evictions := r.stats.Evictions
		key := scriptKey(a, b)
		item := func() (*Item, *Item) {
			it := Item{Key: key, Value: scriptValue(a, b, mk), Flags: uint32(b)}
			if b&0x30 == 0x30 {
				it.Expiration = clock + int64(a>>3%4) // clock + 0: stored already expired
			}
			cp := it
			return &it, &cp
		}
		what := fmt.Sprintf("%d on %q", verb, key)
		switch verb {
		case 0, 1, 2:
			si, ri := item()
			sameErr(step, what, s.Set(si), r.store(ri, verbSet))
			if si.CAS != ri.CAS {
				t.Fatalf("verb %d %s: store handed back CAS %d, model %d", step, what, si.CAS, ri.CAS)
			}
		case 3:
			si, ri := item()
			sameErr(step, what, s.Add(si), r.store(ri, verbAdd))
		case 4:
			si, ri := item()
			sameErr(step, what, s.Replace(si), r.store(ri, verbReplace))
		case 5:
			si, ri := item()
			si.CAS, ri.CAS = tokens[key], tokens[key]
			sameErr(step, what, s.CompareAndSwap(si), r.store(ri, verbCAS))
		case 6:
			sameErr(step, what, s.Append(key, scriptValue(a, b, mk)), r.concat(key, scriptValue(a, b, mk), false))
		case 7:
			sameErr(step, what, s.Prepend(key, scriptValue(a, b, mk)), r.concat(key, scriptValue(a, b, mk), true))
		case 8:
			gn, gerr := s.IncrDecr(key, uint64(b), b&1 == 0)
			wn, werr := r.incrDecr(key, uint64(b), b&1 == 0)
			if sameErr(step, what, gerr, werr); gn != wn {
				t.Fatalf("verb %d %s: store counted to %d, model to %d", step, what, gn, wn)
			}
		case 9, 10:
			var got Item
			it, err := s.Get(key)
			if err == nil {
				got = *it
			} else if err != ErrCacheMiss {
				t.Fatalf("verb %d %s: Get failed with %v", step, what, err)
			}
			want, ok := r.get(key)
			if sameItem(step, what, got, err == nil, want, ok); ok {
				tokens[key] = want.CAS
			}
		case 11:
			got, gok := s.GetView([]byte(key), &scratch)
			want, ok := r.get(key)
			if sameItem(step, what, got, gok, want, ok); ok {
				tokens[key] = want.CAS
			}
		case 12, 13:
			sameErr(step, what, s.Delete(key), r.delete(key))
		case 14:
			clock += int64(a % 3) // what was stored to expire soon, does
		default:
			if a%64 != 0 {
				continue
			}
			s.FlushAll()
			r.flushAll()
			cov.flushes++
		}
		if got, want := s.Stats(), r.stats; got != want {
			t.Fatalf("verb %d %s: Stats\n store %+v\n model %+v", step, what, got, want)
		}
		if got, want := s.Len(), len(r.table); got != want {
			t.Fatalf("verb %d %s: Len %d, model %d", step, what, got, want)
		}
		if left := r.stats.Evictions + r.stats.Expired; left != leftBefore || step%32 == 0 {
			leftBefore = left
			sameContents(step, what)
		}
		cov.buckets = max(cov.buckets, len(s.buckets))
		if len(s.arenas) > doublingArenas {
			cov.farEvictions += r.stats.Evictions - evictions
		}
	}
	sameContents(-1, "at the end")
	for _, k := range r.keys() {
		got, ok := s.Peek(k)
		if !ok || !sameValue(got, r.table[k].Value) {
			t.Fatalf("at the end: Peek(%q) = %d bytes, %v; the model holds %d bytes", k, got.Len(), ok, r.table[k].Value.Len())
		}
	}
	cov.evictions, cov.classes = r.stats.Evictions, len(r.slabStats())
	return cov
}

// storeScriptBytes is the property test's script for one seed.
func storeScriptBytes(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 3*(256+rng.Intn(4096)))
	rng.Read(data)
	return data
}

// arenaScriptBytes is a script that holds more entries than the doubling
// arenas do, evicts there and recycles entries across arenas. It sets every
// large-alphabet key whose value is small (one slab page of the smallest
// class) or about 200 bytes (a page each for two classes), then all but 384
// of the keys with 900-byte values: their class fills the last three pages
// (2,673 chunks) and evicts 16. Then it deletes 64 of the first entries and
// 64 of the last, interleaved, sets those keys back, and sets 64 fresh
// 900-byte keys, which evict again.
func arenaScriptBytes() []byte {
	var small, mid, large []byte // (set, a, b) triples
	for a := 96; a < 160; a++ {  // every a%64
		for b := 0; b < 256; b++ {
			if b&0x30 == 0x30 { // these expire
				continue
			}
			switch v := []byte{0, byte(a), byte(b)}; b % 8 {
			case 0, 1, 2:
				small = append(small, v...)
			case 7:
				mid = append(mid, v...)
			case 3, 4:
				large = append(large, v...)
			}
		}
	}
	const churn = 3 * 64
	held := len(large) - 3*384
	data := append(append(append([]byte(nil), small...), mid...), large[:held]...)
	for i := 0; i < churn; i += 3 {
		data = append(data, 12, small[i+1], small[i+2], 12, large[held-churn+i+1], large[held-churn+i+2])
	}
	data = append(data, large[held-churn:held]...)
	data = append(data, small[:churn]...)
	return append(data, large[held:held+churn]...)
}

func TestStoreMatchesReference(t *testing.T) {
	scripts := [][]byte{arenaScriptBytes()}
	for seed := int64(1); seed <= 100; seed++ {
		scripts = append(scripts, storeScriptBytes(seed))
	}
	for k, kind := range storeKinds {
		t.Run(kind.name, func(t *testing.T) {
			var all scriptCoverage
			scripts := scripts
			if kind.scripts > 0 {
				scripts = scripts[:kind.scripts]
			}
			for _, script := range scripts {
				cov := runStoreScript(t, k, script)
				all.buckets = max(all.buckets, cov.buckets)
				all.evictions += cov.evictions
				all.flushes += cov.flushes
				all.classes = max(all.classes, cov.classes)
				all.farEvictions += cov.farEvictions
			}
			t.Logf("largest table %d buckets, %d evictions (%d past the doubling arenas), %d FlushAlls, %d slab classes",
				all.buckets, all.evictions, all.farEvictions, all.flushes, all.classes)
			if all.buckets < minBuckets<<3 || all.evictions == 0 || all.flushes == 0 || all.classes < 3 || all.farEvictions == 0 {
				t.Errorf("the scripts reached a table of %d buckets (want >= %d, three doublings), %d evictions, %d of them with more than %d entries held, %d FlushAlls and %d slab classes: part of the design went unchecked",
					all.buckets, minBuckets<<3, all.evictions, all.farEvictions, doublingEntries, all.flushes, all.classes)
			}
		})
	}
}

func FuzzStoreOps(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(storeScriptBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for k := range storeKinds {
			runStoreScript(t, k, data[:min(len(data), 3*maxScriptVerbs)])
		}
	})
}
