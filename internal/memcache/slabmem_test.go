package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"imca/internal/blob"
)

// TestChunkReuseNeverTearsAReply: two connections, one text and one
// binary, share a daemon of one slab page, all of it granted to the one
// class their values fall in: three chunks. Each sets keys of its own,
// whose value has a length and a fill byte derived from the key, and gets
// back the last two it set, so the other connection's sets keep evicting
// the chunks its gets copy values out of. Every byte of every hit must be
// its key's, and a binary getk must echo its own key. The daemon runs on
// mapped slab memory and on heap pages: the race detector sees only the
// heap, so there a chunk read or written outside the lock is reported as
// the race it is, however rarely it tears a reply.
func TestChunkReuseNeverTearsAReply(t *testing.T) {
	for _, kind := range storeKinds {
		if !kind.owned {
			continue
		}
		t.Run(kind.name, func(t *testing.T) {
			srv := NewServer(slabPageSize)
			if err := srv.store.release(); err != nil {
				t.Fatal(err)
			}
			srv.store = kind.new(slabPageSize, srv.store.Now)
			testChunkReuseNeverTearsAReply(t, srv)
		})
	}
}

func testChunkReuseNeverTearsAReply(t *testing.T, srv *Server) {
	const keys, rounds, chunks = 16, 200, 3
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	key := func(proto string, i int) string { return fmt.Sprintf("%s-%02d", proto, i%keys) }
	// The largest class a page holds three chunks of, and the lengths of the
	// values that fall in it.
	keyLen := int64(len(key("txt", 0)))
	ci := srv.store.classFor(slabPageSize / chunks)
	if slabPageSize/srv.store.classes[ci].chunkSize < chunks {
		ci--
	}
	lo := srv.store.classes[ci-1].chunkSize + 1 - itemOverhead - keyLen
	hi := srv.store.classes[ci].chunkSize - itemOverhead - keyLen
	value := func(k string) []byte {
		h := hashKey(k)
		return bytes.Repeat([]byte{byte(h)}, int(lo+int64(h>>8)%(hi-lo+1)))
	}
	check := func(k string, got []byte) error {
		want := value(k)
		if len(got) != len(want) {
			return fmt.Errorf("get %s: %d bytes, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("get %s: byte %d of %d is %#x, want %#x", k, i, len(got), got[i], want[i])
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	var hits [2]int
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // text, through the client
		defer wg.Done()
		cl, err := Dial(addr.String())
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		for r := 1; r <= rounds; r++ {
			k := key("txt", r)
			if err := cl.Set(&Item{Key: k, Value: blob.FromBytes(value(k))}); err != nil {
				errs <- fmt.Errorf("set %s: %v", k, err)
				return
			}
			for _, k := range []string{k, key("txt", r-1)} {
				it, err := cl.Get(k)
				if err == ErrCacheMiss {
					continue
				}
				if err == nil {
					err = check(k, it.Value.Bytes())
				}
				if err != nil {
					errs <- err
					return
				}
				hits[0]++
			}
		}
	}()
	go func() { // binary, framed by hand
		defer wg.Done()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		exchange := func(frame []byte) (binResp, error) {
			if _, err := conn.Write(frame); err != nil {
				return binResp{}, err
			}
			h, err := readBinHeader(r)
			if err != nil {
				return binResp{}, err
			}
			body := make([]byte, h.bodyLen)
			_, err = io.ReadFull(r, body)
			return binResp{h: h, key: body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)], value: body[int(h.extrasLen)+int(h.keyLen):]}, err
		}
		for i := 1; i <= rounds; i++ {
			k := key("bin", i)
			if resp, err := exchange(binFrame(binOpSet, k, setExtras(0, 0), value(k), 0)); err != nil || resp.h.status != binStatusOK {
				errs <- fmt.Errorf("set %s: status %#x, %v", k, resp.h.status, err)
				return
			}
			for _, k := range []string{k, key("bin", i-1)} {
				resp, err := exchange(binFrame(binOpGetK, k, nil, nil, 0))
				switch {
				case err != nil:
				case resp.h.status == binStatusKeyNotFound:
					continue
				case string(resp.key) != k:
					err = fmt.Errorf("getk %s echoed key %q", k, resp.key)
				default:
					err = check(k, resp.value)
				}
				if err != nil {
					errs <- err
					return
				}
				hits[1]++
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, slabs := srv.store.Stats(), srv.store.SlabStats()
	t.Logf("class %d: %d chunks of %d bytes; values %d-%d bytes; %d text and %d binary hits, %d evictions",
		ci+1, slabs[ci].UsedChunks+slabs[ci].FreeChunks, slabs[ci].ChunkSize, lo, hi, hits[0], hits[1], st.Evictions)
	if len(slabs) != 1 || slabs[ci].UsedChunks+slabs[ci].FreeChunks != chunks || hits[0] == 0 || hits[1] == 0 || st.Evictions == 0 {
		t.Errorf("the connections shared %v with %d text and %d binary hits and %d evictions: chunks went unreused", slabs, hits[0], hits[1], st.Evictions)
	}
}

// TestServerCloseReleasesSlabMemory: Close gives the store's slab memory
// back once its handlers are gone, and closing again is safe. The store
// then still answers, as an empty store with its counters kept: every
// read misses, and a store has no memory to go to.
func TestServerCloseReleasesSlabMemory(t *testing.T) {
	srv := NewServer(4 << 20)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "k", Value: blob.FromString("12")}); err != nil {
		t.Fatal(err)
	}
	st := srv.Store()
	if runtime.GOOS == "linux" && st.mem.mapped == nil {
		t.Error("the daemon's slab memory is not mapped")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.mem.mapped != nil || st.mem.pages != nil {
		t.Error("Close kept the slab memory")
	}
	if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Errorf("a second Close: %v", err)
	}

	if got := st.Stats(); got.CmdSet != 1 || got.CurrItems != 0 || got.Bytes != 0 || got.LimitBytes != 4<<20 {
		t.Errorf("Stats after Close: %+v; want the one set counted and nothing held", got)
	}
	if _, err := st.Get("k"); err != ErrCacheMiss {
		t.Errorf("Get after Close: %v, want a miss", err)
	}
	var scratch []byte
	if _, ok := st.GetView([]byte("k"), &scratch); ok {
		t.Error("GetView after Close hit")
	}
	if _, ok := st.Peek("k"); ok {
		t.Error("Peek after Close hit")
	}
	if _, err := st.IncrDecr("k", 1, true); err != ErrCacheMiss {
		t.Errorf("incr after Close: %v, want a miss", err)
	}
	if err := st.Set(&Item{Key: "k", Value: blob.FromString("v")}); err != ErrTooLarge {
		t.Errorf("Set after Close: %v, want ErrTooLarge", err)
	}
	st.FlushAll()
	if n, slabs := st.Len(), st.SlabStats(); n != 0 || len(slabs) != 0 {
		t.Errorf("after Close the store holds %d items in %v", n, slabs)
	}
}

// TestNewServerTakesAnyLimit: NewServer never panics. A limit below a slab
// page holds nothing, and one too large to map gets its pages from the heap
// as they are granted, so it costs nothing up front.
func TestNewServerTakesAnyLimit(t *testing.T) {
	for _, limit := range []int64{0, slabPageSize - 1, slabPageSize, math.MaxInt64} {
		srv := NewServer(limit)
		st := srv.Store()
		err := st.Set(&Item{Key: "k", Value: blob.FromString("hello")})
		switch {
		case limit < slabPageSize && err != ErrTooLarge:
			t.Errorf("limit %d: Set = %v, want ErrTooLarge", limit, err)
		case limit >= slabPageSize && err != nil:
			t.Errorf("limit %d: Set = %v", limit, err)
		case err == nil:
			if it, err := st.Get("k"); err != nil || string(it.Value.Bytes()) != "hello" {
				t.Errorf("limit %d: Get = %v, %v", limit, it, err)
			}
		}
		if limit == math.MaxInt64 && (st.mem.mapped != nil || len(st.mem.pages) != 1) {
			t.Errorf("limit %d: mapped %d bytes and allocated %d heap pages; want one heap page", limit, len(st.mem.mapped), len(st.mem.pages))
		}
		if err := srv.Close(); err != nil {
			t.Errorf("limit %d: Close: %v", limit, err)
		}
	}
}
