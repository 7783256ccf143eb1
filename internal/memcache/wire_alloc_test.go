package memcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"imca/internal/blob"
)

// feed is a warmed connection seen from the daemon's side: each next call
// queues one more copy of a request on the read side and discards what is
// written, so testing.AllocsPerRun can drive a serve loop one request at a
// time over an in-memory io.ReadWriter.
type feed struct {
	req, pending []byte
	more         chan struct{}
	done         chan struct{}
}

func newFeed(req string) *feed {
	return &feed{req: []byte(req), more: make(chan struct{}), done: make(chan struct{})}
}

func (f *feed) Read(p []byte) (int, error) {
	if len(f.pending) == 0 {
		f.done <- struct{}{} // the previous request is fully served
		if _, ok := <-f.more; !ok {
			return 0, io.EOF
		}
		f.pending = f.req
	}
	n := copy(p, f.pending)
	f.pending = f.pending[n:]
	return n, nil
}

func (f *feed) Write(p []byte) (int, error) { return len(p), nil }

// next serves one more request and returns when the loop is back at its
// blocking read.
func (f *feed) next() {
	f.more <- struct{}{}
	<-f.done
}

// serveAllocs reports the allocations serve makes per request req.
func serveAllocs(t *testing.T, st *Store, req string, serve func(*Store, io.ReadWriter) error) float64 {
	t.Helper()
	f := newFeed(req)
	finished := make(chan error, 1)
	go func() { finished <- serve(st, f) }()
	<-f.done // the loop reached its first read
	f.next() // warm: bufio buffers, the store's table
	allocs := testing.AllocsPerRun(200, f.next)
	close(f.more)
	if err := <-finished; err != io.EOF {
		t.Fatalf("serve loop ended with %v, want EOF", err)
	}
	return allocs
}

// allocStore is a store that mk makes, holding one 2 KB item.
func allocStore(t *testing.T, mk func(int64, func() int64) *Store) *Store {
	t.Helper()
	st := mk(16<<20, func() int64 { return 0 })
	t.Cleanup(func() { st.release() })
	if err := st.Set(&Item{Key: "/bench/file0000001:stat", Value: blob.FromBytes(bytes.Repeat([]byte("v"), 2048)), Flags: 7}); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerAllocContracts pins what each verb of the real daemon
// allocates per request (DESIGN.md "Memory discipline").
func TestServerAllocContracts(t *testing.T) {
	const key = "/bench/file0000001:stat"
	binReq := func(op byte, key string, extras, value int) string {
		var h [24]byte
		h[0], h[1], h[4] = binReqMagic, op, byte(extras)
		binary.BigEndian.PutUint16(h[2:], uint16(len(key)))
		binary.BigEndian.PutUint32(h[8:], uint32(extras+len(key)+value))
		return string(h[:]) + strings.Repeat("\x00", extras) + key + strings.Repeat("x", value)
	}
	binGet := func(op byte) string { return binReq(op, key, 0, 0) }
	for _, tc := range []struct {
		name  string
		req   string
		serve func(*Store, io.ReadWriter) error
		max   float64
	}{
		{"text get hit", "get " + key + "\r\n", ServeConn, 0},
		{"text gets hit", "gets " + key + "\r\n", ServeConn, 0},
		{"text get miss", "get /bench/absent\r\n", ServeConn, 0},
		{"text get hit via sniffing", "get " + key + "\r\n", ServeAutoConn, 0},
		// Nothing: the key is copied out of the line into the connection's
		// key buffer and the data block read into its kept buffer, then both
		// are copied into the store's key pages and chunk, for the entry the
		// replaced (or evicted) item gave up.
		{"text set", "set /bench/file0000002:stat 3 0 100\r\n" + strings.Repeat("x", 100) + "\r\n", ServeConn, 0},
		{"text pipelined batch", strings.Repeat("get "+key+" /bench/absent\r\n", 8), ServeConn, 0},
		{"binary get hit", binGet(binOpGet), ServeBinaryConn, 0},
		{"binary getk hit via sniffing", binGet(binOpGetK), ServeAutoConn, 0},
		// As for text: nothing. The body is read into the connection's kept
		// buffer, and the key and value are copied from there...
		{"binary set", binReq(binOpSet, "/bench/file0000002:stat", 8, 100), ServeBinaryConn, 0},
		// ...unless it is larger than the buffer may grow, when it is read
		// into one of its own.
		{"binary set of a 100 KB value", binReq(binOpSet, "/bench/file0000002:stat", 8, 100<<10), ServeBinaryConn, 1},
	} {
		// The daemon's store.
		if got := serveAllocs(t, allocStore(t, newOwningStore), tc.req, tc.serve); got > tc.max {
			t.Errorf("%s: %.0f allocs per request, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// TestBodyBufferReuse: a binary connection reads each body up to
// maxKeptBody into the one buffer it keeps, growing it when a body does
// not fit and never shrinking it.
func TestBodyBufferReuse(t *testing.T) {
	var kept []byte
	b := bodyBuffer(&kept, 100)
	if len(b) != 100 || &b[0] != &kept[:1][0] {
		t.Fatalf("a 100-byte body got len %d, not the kept buffer", len(b))
	}
	c := bodyBuffer(&kept, 70)
	if len(c) != 70 || &c[0] != &b[0] {
		t.Error("a smaller body did not reuse the kept buffer")
	}
	grown := bodyBuffer(&kept, 5000)
	if len(grown) != 5000 || cap(kept) < 5000 || &grown[0] != &kept[:1][0] {
		t.Errorf("a 5000-byte body got len %d; kept buffer cap %d", len(grown), cap(kept))
	}
	if d := bodyBuffer(&kept, 100); &d[0] != &grown[0] {
		t.Error("the kept buffer shrank after a larger body")
	}
	if full := bodyBuffer(&kept, maxKeptBody); len(full) != maxKeptBody || cap(kept) != maxKeptBody {
		t.Errorf("a body of maxKeptBody bytes got len %d; kept buffer cap %d, want %d", len(full), cap(kept), maxKeptBody)
	}
}

// TestBodyBufferOversizedFallsThrough: a body over maxKeptBody gets a
// buffer of its own, and the connection's kept buffer is left as it was.
func TestBodyBufferOversizedFallsThrough(t *testing.T) {
	kept := make([]byte, 512)
	b := bodyBuffer(&kept, maxKeptBody+1)
	if len(b) != maxKeptBody+1 {
		t.Fatalf("oversized body got len %d", len(b))
	}
	if cap(kept) != 512 || &b[0] == &kept[0] {
		t.Errorf("oversized body was kept: kept buffer cap %d", cap(kept))
	}
}

// TestBodyBufferSteadyStateAllocFree: once the kept buffer has grown to a
// connection's body size, reading further bodies allocates nothing.
func TestBodyBufferSteadyStateAllocFree(t *testing.T) {
	var kept []byte
	bodyBuffer(&kept, 512)
	if avg := testing.AllocsPerRun(1000, func() { _ = bodyBuffer(&kept, 512) }); avg != 0 {
		t.Errorf("steady-state body buffer allocates %.2f per request, want 0", avg)
	}
}

// The getters share one read path; only Get's hit pays for a copy — of the
// item, and on a store that owns its value bytes of the value too, which
// GetView copies into the caller's scratch.
func TestStoreGetAllocContracts(t *testing.T) {
	const key = "/bench/file0000001:stat"
	kb := []byte(key)
	for _, kind := range storeKinds {
		st := allocStore(t, kind.new)
		var scratch []byte
		st.GetView(kb, &scratch) // grows scratch to the value
		getHit := 1.0
		if kind.owned {
			getHit = 2
		}
		for _, tc := range []struct {
			name string
			op   func()
			want float64
		}{
			{"Get hit", func() { _, _ = st.Get(key) }, getHit},
			{"Get miss", func() { _, _ = st.Get("absent") }, 0},
			{"GetView hit", func() { _, _ = st.GetView(kb, &scratch) }, 0},
			{"GetView miss", func() { _, _ = st.GetView(kb[:4], &scratch) }, 0},
		} {
			if got := testing.AllocsPerRun(200, tc.op); got != tc.want {
				t.Errorf("%s store, %s: %.0f allocs, want %.0f", kind.name, tc.name, got, tc.want)
			}
		}
	}
}

// TestStoreSetAllocContracts: the store allocates per arena of entries and
// per doubling of its table, never per item. Setting a key again gives the
// new item the entry the old one gave up; fresh keys into a store with room
// cost at most one allocation per 16 sets — the first arena's size, which
// later arenas and the doublings amortise far below. (The row for a store
// at its limit is TestStoreSetEvictAllocFree.)
func TestStoreSetAllocContracts(t *testing.T) {
	const batch, runs = 256, 15
	st := NewStore(64<<20, func() int64 { return 0 })
	req := &Item{Key: "/bench/f:0", Value: blob.Synthetic(1, 0, 2048)}
	if got := testing.AllocsPerRun(200, func() { _ = st.Set(req) }); got != 0 {
		t.Errorf("replacing set: %.0f allocs, want 0", got)
	}
	keys := make([]string, (runs+1)*batch) // AllocsPerRun adds a warm-up call
	for i := range keys {
		keys[i] = fmt.Sprintf("/bench/f:%d", (i+1)*2048)
	}
	next := 0
	fresh := func() {
		for i := 0; i < batch; i++ {
			req.Key = keys[next]
			next++
			if err := st.Set(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(runs, fresh); got > batch/16 {
		t.Errorf("%d fresh sets: %.0f allocs, want at most %d (1 per 16)", batch, got, batch/16)
	}
	if st.Len() != len(keys)+1 || st.Stats().Evictions != 0 {
		t.Errorf("the store holds %d of %d keys after %d evictions; the sets were not all fresh", st.Len(), len(keys)+1, st.Stats().Evictions)
	}
}

// TestStoreSetEvictAllocFree: a store at its memory limit takes fresh keys
// by evicting, and the evicted item's entry becomes the new item's — the
// bank itself allocates nothing per block in the streaming regime. (The
// keys and the request item are the caller's and are made beforehand.)
func TestStoreSetEvictAllocFree(t *testing.T) {
	const sets = 10000
	st := NewStore(2<<20, func() int64 { return 0 })
	keys := make([]string, 2*sets)
	for i := range keys {
		keys[i] = fmt.Sprintf("/scan/f:%d", i*2048)
	}
	req := &Item{Value: blob.Synthetic(1, 0, 2048)}
	next := 0
	set := func() {
		req.Key = keys[next]
		next++
		if err := st.Set(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sets; i++ {
		set() // fill to the limit, then churn the table to its steady size
	}
	before := st.Stats()
	if before.Evictions == 0 {
		t.Fatal("the store never reached its limit")
	}
	if got := testing.AllocsPerRun(sets-1, set); got != 0 { // AllocsPerRun adds a warm-up call
		t.Errorf("a set of a fresh key into a full store allocated %.2f times, want 0", got)
	}
	if after := st.Stats(); after.Evictions-before.Evictions != sets || after.CurrItems != before.CurrItems {
		t.Errorf("%d sets evicted %d items and moved the population %d -> %d; want one eviction each",
			sets, after.Evictions-before.Evictions, before.CurrItems, after.CurrItems)
	}
}

// TestClientAllocContracts pins the client's side of a round trip against
// a scripted peer, per call. A get hit of a value up to replyCutMax bytes
// takes its Item from the connection's chunk and its bytes from the
// connection's slab, so it costs a share of each refill; a larger value
// costs its own buffer and its own Item; a miss and a set keep nothing.
func TestClientAllocContracts(t *testing.T) {
	const (
		runs = 2048
		// What one hit up to replyCutMax bytes keeps: its share of an Item
		// chunk; its share of a slab is slab(size).
		chunkItem = 1.0 / replyItemChunk
		// What a larger hit keeps.
		ownBuffer, ownItem = 1, 1
		// GetMulti's own bookkeeping, per call: the per-server key lists
		// (a list of lists and the five appends that grow one list to 16
		// keys), the deferred unlock of a connection locked in a loop, and
		// the result map sized for 16 entries (four with Go 1.24's maps).
		getMultiFixed = 1 + 5 + 1 + 4
		multiKeys     = 16
	)
	// slab is a hit's share of a slab refill: a slab holds
	// replySlabSize/size values, and the one that does not fit starts the
	// next slab.
	slab := func(size int) float64 { return 1 / float64(replySlabSize/size) }

	const key = "/bench/file0000001:stat"
	value := func(size int) string { return strings.Repeat("v", size) }
	reply := func(size int, cas string) string {
		return fmt.Sprintf("VALUE %s 7 %d%s\r\n%s\r\nEND\r\n", key, size, cas, value(size))
	}
	hit := func(size int) func(it *Item, err error) error {
		want := value(size)
		return func(it *Item, err error) error {
			if err == nil && (it.Key != key || it.Flags != 7 || string(it.Value.Bytes()) != want) {
				return fmt.Errorf("got %+v", it)
			}
			return err
		}
	}
	hit100, hit2K, hit16K := hit(100), hit(2<<10), hit(16<<10)
	value100 := value(100)
	var multi []string
	var multiReply strings.Builder
	for i := 0; i < multiKeys; i++ {
		k := fmt.Sprintf("/bench/file%07d:stat", i)
		multi = append(multi, k)
		fmt.Fprintf(&multiReply, "VALUE %s 0 100\r\n%s\r\n", k, value100)
	}
	multiReply.WriteString("END\r\n")
	item := &Item{Key: key, Value: blob.FromString(value(2 << 10)), Flags: 7} // the caller's, not the round trip's
	for _, tc := range []struct {
		name  string
		reply string
		op    func(*Client) error
		// perCall bounds the mean allocations per call. A whole number
		// amortises no refill, so the call must cost exactly that.
		perCall float64
	}{
		{"get hit 100 B", reply(100, ""), func(cl *Client) error { return hit100(cl.Get(key)) }, chunkItem + slab(100)},
		{"get hit 2 KB", reply(2<<10, ""), func(cl *Client) error { return hit2K(cl.Get(key)) }, chunkItem + slab(2<<10)},
		{"gets hit 2 KB", reply(2<<10, " 99"), func(cl *Client) error { return hit2K(cl.Gets(key)) }, chunkItem + slab(2<<10)},
		{"get hit 16 KB", reply(16<<10, ""), func(cl *Client) error { return hit16K(cl.Get(key)) }, ownBuffer + ownItem},
		{"getmulti 16 x 100 B", multiReply.String(), func(cl *Client) error {
			m, err := cl.GetMulti(multi)
			if err == nil && (len(m) != multiKeys || string(m[multi[3]].Value.Bytes()) != value100) {
				return fmt.Errorf("got %d items", len(m))
			}
			return err
		}, getMultiFixed + multiKeys*(chunkItem+slab(100))},
		{"get miss", "END\r\n", func(cl *Client) error {
			if _, err := cl.Get(key); err != ErrCacheMiss {
				return fmt.Errorf("miss returned %v", err)
			}
			return nil
		}, 0},
		{"set", "STORED\r\n", func(cl *Client) error { return cl.Set(item) }, 0},
	} {
		cl := scriptedClient(tc.reply)
		var err error
		n := allocsOver(runs, func() {
			if e := tc.op(cl); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := float64(n) / runs
		t.Logf("%s: %.4f allocs per call", tc.name, got)
		if whole := tc.perCall == math.Trunc(tc.perCall); n > uint64(math.Ceil(tc.perCall*runs)) || whole && got != tc.perCall {
			t.Errorf("%s: %.4f allocs per call over %d calls, want at most %.4f", tc.name, got, runs, tc.perCall)
		}
	}
}

// TestClientRepliesKeepTheirBytes: get replies are cut from a connection's
// Item chunks and value slabs and handed to the caller to keep, so no kept
// Item or value may be rewritten when a chunk or a slab runs out. Over a
// mixed-size run of Get, Gets and GetMulti spanning several chunks and
// slabs, every kept Item still holds its own key and the bytes the peer
// sent, each value's capacity is its length, and neither an append to one
// value nor a write into its bytes reaches any other value.
func TestClientRepliesKeepTheirBytes(t *testing.T) {
	sizes := []int{100, replyCutMax, 2048, replyCutMax + 1, 1, 5000, 16 << 10, 3000}
	const n = 24 * 8
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	sent := make([][]byte, n)
	small, smallBytes := 0, 0
	for i := range sent {
		sent[i] = make([]byte, sizes[i%len(sizes)])
		for j := range sent[i] {
			sent[i][j] = byte(i + 31*j)
		}
		if size := len(sent[i]); size <= replyCutMax {
			small, smallBytes = small+1, smallBytes+size
		}
	}
	if small <= 2*replyItemChunk || smallBytes <= 3*replySlabSize {
		t.Fatalf("the run cuts %d values (%d bytes): fewer than 2 chunks' and 3 slabs' worth", small, smallBytes)
	}

	// The peer answers each get or gets line with every key's value.
	peer := &scriptedPeer{answer: func(req []byte) []byte {
		var out []byte
		for _, line := range strings.Split(strings.TrimSuffix(string(req), "\r\n"), "\r\n") {
			f := strings.Fields(line)
			for _, k := range f[1:] {
				var i int
				if _, err := fmt.Sscanf(k, "k%d", &i); err != nil {
					panic(err)
				}
				cas := ""
				if f[0] == "gets" {
					cas = fmt.Sprintf(" %d", i+1)
				}
				out = fmt.Appendf(out, "VALUE %s %d %d%s\r\n%s\r\n", k, i, len(sent[i]), cas, sent[i])
			}
			out = append(out, "END\r\n"...)
		}
		return out
	}}
	cl := &Client{selector: CRC32Selector{}, conns: []*clientConn{newClientConn("", peer)}}
	kept := make([]*Item, n)
	for i := 0; i < n; i += 8 {
		for j := i; j < i+4; j++ {
			get := cl.Get
			if j%2 == 1 {
				get = cl.Gets
			}
			it, err := get(key(j))
			if err != nil {
				t.Fatalf("get %s: %v", key(j), err)
			}
			kept[j] = it
		}
		keys := []string{key(i + 4), key(i + 5), key(i + 6), key(i + 7)}
		m, err := cl.GetMulti(keys)
		if err != nil || len(m) != len(keys) {
			t.Fatalf("getmulti %v: %d items, %v", keys, len(m), err)
		}
		for j, k := range keys {
			kept[i+4+j] = m[k]
		}
	}

	check := func(when string, except int) {
		t.Helper()
		for i, it := range kept {
			if i != except && (it.Key != key(i) || it.Flags != uint32(i) || !bytes.Equal(it.Value.Bytes(), sent[i])) {
				t.Fatalf("%s: item %d holds key %q, flags %d and %d bytes that are not the ones sent for %q",
					when, i, it.Key, it.Flags, it.Value.Len(), key(i))
			}
		}
	}
	check("after the run", -1)
	for i, it := range kept {
		if b := it.Value.Bytes(); cap(b) != len(b) {
			t.Errorf("item %d's %d bytes have capacity %d", i, len(b), cap(b))
		}
	}
	for _, it := range kept {
		_ = append(it.Value.Bytes(), 0xa5, 0x5a)
	}
	check("after an append to every value", -1)
	for i, it := range kept {
		b := it.Value.Bytes()
		for j := range b {
			b[j] ^= 0xff
		}
		check(fmt.Sprintf("after a write into item %d", i), i)
		for j := range b {
			b[j] ^= 0xff
		}
	}
}

// allocsOver counts the allocations of runs calls of f after one warm-up
// call: testing.AllocsPerRun's count before it rounds the mean down, which
// would read a share of 1/64 as 0. The collector is off while it counts: a
// collection cycle makes a few allocations of the runtime's own.
func allocsOver(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// scriptedClient is a one-server Client whose server answers every request
// with reply.
func scriptedClient(reply string) *Client {
	peer := &scriptedPeer{reply: []byte(reply)}
	return &Client{selector: CRC32Selector{}, conns: []*clientConn{newClientConn("", peer)}}
}

// scriptedPeer answers every flushed request with the same reply, or with
// what answer makes of it, and counts the bytes it was sent.
type scriptedPeer struct {
	reply, pending []byte
	answer         func(request []byte) []byte
	wrote          int
	closed         bool
}

func (p *scriptedPeer) Close() error {
	p.closed = true
	return nil
}

func (p *scriptedPeer) Write(b []byte) (int, error) {
	p.pending = p.reply
	if p.answer != nil {
		p.pending = p.answer(b)
	}
	p.wrote += len(b)
	return len(b), nil
}

func (p *scriptedPeer) Read(b []byte) (int, error) {
	if len(p.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.pending)
	p.pending = p.pending[n:]
	return n, nil
}
