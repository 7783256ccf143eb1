package memcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
		// The key string, what must outlive the request: the data block is
		// read into the connection's kept buffer and copied into the chunk
		// and the entry the replaced (or evicted) item gave up.
		{"text set", "set /bench/file0000002:stat 3 0 100\r\n" + strings.Repeat("x", 100) + "\r\n", ServeConn, 1},
		{"text pipelined batch", strings.Repeat("get "+key+" /bench/absent\r\n", 8), ServeConn, 0},
		{"binary get hit", binGet(binOpGet), ServeBinaryConn, 0},
		{"binary getk hit via sniffing", binGet(binOpGetK), ServeAutoConn, 0},
		// As for text: the key string. The body is read into the
		// connection's kept buffer...
		{"binary set", binReq(binOpSet, "/bench/file0000002:stat", 8, 100), ServeBinaryConn, 1},
		// ...unless it is larger than the buffer may grow, when it is read
		// into one of its own.
		{"binary set of a 100 KB value", binReq(binOpSet, "/bench/file0000002:stat", 8, 100<<10), ServeBinaryConn, 2},
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
// a scripted peer: a Get hit keeps the value buffer and the Item, a miss
// and a Set keep nothing.
func TestClientAllocContracts(t *testing.T) {
	const key = "/bench/file0000001:stat"
	value := strings.Repeat("v", 2048)
	item := &Item{Key: key, Value: blob.FromString(value), Flags: 7} // the caller's, not the round trip's
	hit := func(it *Item, err error) error {
		if err == nil && (it.Key != key || it.Flags != 7 || string(it.Value.Bytes()) != value) {
			return fmt.Errorf("got %+v", it)
		}
		return err
	}
	for _, tc := range []struct {
		name  string
		reply string
		op    func(*Client) error
		max   float64
	}{
		{"get hit", "VALUE " + key + " 7 2048\r\n" + value + "\r\nEND\r\n", func(cl *Client) error { return hit(cl.Get(key)) }, 2},
		{"gets hit", "VALUE " + key + " 7 2048 99\r\n" + value + "\r\nEND\r\n", func(cl *Client) error { return hit(cl.Gets(key)) }, 2},
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
		op := func() {
			if e := tc.op(cl); e != nil {
				err = e
			}
		}
		op() // warm
		got := testing.AllocsPerRun(200, op)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// scriptedClient is a one-server Client whose server answers every request
// with reply.
func scriptedClient(reply string) *Client {
	peer := &scriptedPeer{reply: []byte(reply)}
	return &Client{selector: CRC32Selector{}, conns: []*clientConn{newClientConn("", peer)}}
}

// scriptedPeer answers every flushed request with the same reply, and
// counts the bytes it was sent.
type scriptedPeer struct {
	reply, pending []byte
	wrote          int
	closed         bool
}

func (p *scriptedPeer) Close() error {
	p.closed = true
	return nil
}

func (p *scriptedPeer) Write(b []byte) (int, error) {
	p.pending = p.reply
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
