package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"imca/internal/blob"
)

// startServer launches a TCP daemon on an ephemeral port.
func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv := NewServer(16 << 20)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestTCPClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Set(&Item{Key: "greeting", Value: blob.FromString("hello"), Flags: 3}); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value.Bytes()) != "hello" || it.Flags != 3 {
		t.Errorf("got %q flags=%d", it.Value.Bytes(), it.Flags)
	}
	if _, err := cl.Get("absent"); err != ErrCacheMiss {
		t.Errorf("get absent = %v, want ErrCacheMiss", err)
	}
}

func TestTCPClientAddReplaceDelete(t *testing.T) {
	_, addr := startServer(t)
	cl, _ := Dial(addr)
	defer cl.Close()

	if err := cl.Add(&Item{Key: "k", Value: blob.FromString("1")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(&Item{Key: "k", Value: blob.FromString("2")}); err != ErrNotStored {
		t.Errorf("add existing = %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: blob.FromString("3")}); err != nil {
		t.Errorf("replace = %v", err)
	}
	if err := cl.Delete("k"); err != nil {
		t.Errorf("delete = %v", err)
	}
	if err := cl.Delete("k"); err != ErrCacheMiss {
		t.Errorf("double delete = %v", err)
	}
}

func TestTCPClientIncrDecr(t *testing.T) {
	_, addr := startServer(t)
	cl, _ := Dial(addr)
	defer cl.Close()
	cl.Set(&Item{Key: "n", Value: blob.FromString("41")})
	if v, err := cl.Incr("n", 1); err != nil || v != 42 {
		t.Errorf("incr = %d, %v", v, err)
	}
	if v, err := cl.Decr("n", 2); err != nil || v != 40 {
		t.Errorf("decr = %d, %v", v, err)
	}
}

func TestTCPClientGetMultiAcrossServers(t *testing.T) {
	_, addr1 := startServer(t)
	_, addr2 := startServer(t)
	cl, err := Dial(addr1, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("multi-key-%d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: blob.FromString(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.GetMulti(append(keys, "never-set"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Errorf("GetMulti returned %d items, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if it := got[k]; it == nil || string(it.Value.Bytes()) != fmt.Sprint(i) {
			t.Errorf("key %s wrong or missing", k)
		}
	}
}

func TestTCPClientKeysSpreadAcrossServers(t *testing.T) {
	srv1, addr1 := startServer(t)
	srv2, addr2 := startServer(t)
	cl, _ := Dial(addr1, addr2)
	defer cl.Close()
	for i := 0; i < 64; i++ {
		cl.Set(&Item{Key: fmt.Sprintf("spread-%d", i), Value: blob.FromString("v")})
	}
	n1, n2 := srv1.Store().Len(), srv2.Store().Len()
	if n1+n2 != 64 {
		t.Fatalf("total items %d, want 64", n1+n2)
	}
	if n1 == 0 || n2 == 0 {
		t.Errorf("CRC32 distribution degenerate: %d/%d", n1, n2)
	}
}

func TestTCPServerStats(t *testing.T) {
	_, addr := startServer(t)
	cl, _ := Dial(addr)
	defer cl.Close()
	cl.Set(&Item{Key: "a", Value: blob.FromString("v")})
	cl.Get("a")
	cl.Get("miss")
	stats, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	m := stats[addr]
	if m["get_hits"] != "1" || m["get_misses"] != "1" {
		t.Errorf("stats = %v", m)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d-i%d", w, i)
				if err := cl.Set(&Item{Key: k, Value: blob.FromString(k)}); err != nil {
					errs <- err
					return
				}
				it, err := cl.Get(k)
				if err != nil || string(it.Value.Bytes()) != k {
					errs <- fmt.Errorf("readback %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Store().Len(); got != workers*50 {
		t.Errorf("items = %d, want %d", got, workers*50)
	}
}

// TestTCPSharedClient: goroutines sharing one Client share its
// connections' Item chunks and value slabs. Each of 8 goroutines mixes
// sets, gets and multi-key gets over two daemons, keeps every Item it is
// handed, and checks at the end that each still holds what was set.
func TestTCPSharedClient(t *testing.T) {
	_, addr1 := startServer(t)
	_, addr2 := startServer(t)
	cl, err := Dial(addr1, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const workers, rounds = 8, 40
	sizes := []int{10, 2048, replyCutMax, replyCutMax + 1, 700}
	value := func(k string, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = k[i%len(k)]
		}
		return b
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kept []*Item
			var keys []string
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("shared-w%d-i%d", w, i)
				if err := cl.Set(&Item{Key: k, Value: blob.FromBytes(value(k, sizes[i%len(sizes)]))}); err != nil {
					t.Errorf("set %s: %v", k, err)
					return
				}
				keys = append(keys, k)
				it, err := cl.Get(k)
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				kept = append(kept, it)
				if i%4 == 3 {
					m, err := cl.GetMulti(keys[i-3:])
					if err != nil || len(m) != 4 {
						t.Errorf("getmulti %v: %d items, %v", keys[i-3:], len(m), err)
						return
					}
					for _, it := range m {
						kept = append(kept, it)
					}
				}
			}
			for _, it := range kept {
				var i int
				if _, err := fmt.Sscanf(it.Key, "shared-w%d-i%d", new(int), &i); err != nil {
					t.Errorf("kept item with key %q", it.Key)
					continue
				}
				if !bytes.Equal(it.Value.Bytes(), value(it.Key, sizes[i%len(sizes)])) {
					t.Errorf("kept item %s no longer holds the value set", it.Key)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTCPClientGetsAndCAS(t *testing.T) {
	_, addr := startServer(t)
	cl, _ := Dial(addr)
	defer cl.Close()

	cl.Set(&Item{Key: "cc", Value: blob.FromString("v1")})
	it, err := cl.Gets("cc")
	if err != nil || it.CAS == 0 {
		t.Fatalf("gets = %+v, %v", it, err)
	}
	// CAS with the current token succeeds.
	it.Value = blob.FromString("v2")
	if err := cl.CompareAndSwap(it); err != nil {
		t.Fatalf("cas = %v", err)
	}
	// Re-using the stale token conflicts.
	it.Value = blob.FromString("v3")
	if err := cl.CompareAndSwap(it); err != ErrExists {
		t.Errorf("stale cas = %v, want ErrExists", err)
	}
	got, _ := cl.Get("cc")
	if string(got.Value.Bytes()) != "v2" {
		t.Errorf("value = %q, want v2", got.Value.Bytes())
	}
}

// flakyListener fails its first Accepts, then hands out whatever arrives
// on conns until it is closed.
type flakyListener struct {
	fails  int
	conns  chan net.Conn
	closed chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, errors.New("accept: too many open files")
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return nil }

// TestServeSurvivesFailedAccepts: an Accept error that is not the server's
// own Close does not end the accept loop — the connection that arrives
// after two failures is served — and Close still stops Serve.
func TestServeSurvivesFailedAccepts(t *testing.T) {
	srv := NewServer(1 << 20)
	ln := &flakyListener{fails: 2, conns: make(chan net.Conn), closed: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	cli, peer := net.Pipe()
	ln.conns <- peer
	if _, err := io.WriteString(cli, "set k 0 0 2\r\nhi\r\nget k\r\n"); err != nil {
		t.Fatal(err)
	}
	want := "STORED\r\nVALUE k 0 2\r\nhi\r\nEND\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(cli, got); err != nil || string(got) != want {
		t.Fatalf("third connection answered %q, %v; want %q", got, err, want)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	<-served
	if ln.fails != 0 {
		t.Errorf("%d scripted Accept failures never happened", ln.fails)
	}
}

// BenchmarkClientGet times one Get hit over loopback TCP per value size:
// the client's allocations per hit are its Item and value share (see
// TestClientAllocContracts); the daemon allocates nothing.
func BenchmarkClientGet(b *testing.B) {
	for _, size := range []int{100, 2 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			_, addr := startServer(b)
			cl, err := Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			const key = "/bench/file0000001:blk"
			if err := cl.Set(&Item{Key: key, Value: blob.FromBytes(bytes.Repeat([]byte{'v'}, size))}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := cl.Get(key)
				if err != nil || it.Value.Len() != int64(size) {
					b.Fatalf("get: %v", err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			// allocs/op is rounded down, which reads a chunk's share of 1/64
			// as 0; allocs/hit is the unrounded mean.
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/hit")
		})
	}
}
