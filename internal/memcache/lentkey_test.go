package memcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"imca/internal/blob"
	"imca/internal/sim"
)

// The store copies every key it keeps into its own key pages, so a key
// lent to it — as bytes by a simulated request, a connection's wire buffer
// or a caller — may be rewritten the moment the lend ends. These tests
// rewrite each such buffer then and check that the store, and a replica,
// still hold the original key: by Get, and by Keys.

// holds fails t unless st holds exactly keys, each with value key+"!".
func holds(t *testing.T, name string, st *Store, keys ...string) {
	t.Helper()
	if got := st.Keys(); !reflect.DeepEqual(got, keys) {
		t.Errorf("%s: Keys() = %q, want %q", name, got, keys)
	}
	for _, k := range keys {
		it, err := st.Get(k)
		if err != nil || string(it.Value.Bytes()) != k+"!" {
			t.Errorf("%s: Get(%q) = %v, %v; want value %q", name, k, it, err, k+"!")
		}
	}
}

// scribble rewrites b in place.
func scribble(b []byte) {
	for i := range b {
		b[i] = '#'
	}
}

// TestStoreCopiesLentKeys: a key lent to the store as bytes, on every kind
// of store, on each insert path — a store verb, a join, an incr — is the
// store's own copy once the call returns.
func TestStoreCopiesLentKeys(t *testing.T) {
	for _, kind := range storeKinds {
		st := kind.new(1<<20, func() int64 { return 0 })
		lent := []byte("lent-set")
		if err := apply(st, verbSet, lent, &Item{Value: blob.FromString("lent-set")}); err != nil {
			t.Fatal(err)
		}
		scribble(lent)
		lent = []byte("lent-set")
		if err := apply(st, verbAppend, lent, &Item{Value: blob.FromString("!")}); err != nil {
			t.Fatal(err)
		}
		scribble(lent)
		if err := st.Set(&Item{Key: "lent-incr", Value: blob.FromString("7")}); err != nil {
			t.Fatal(err)
		}
		lent = []byte("lent-incr")
		if _, err := incrDecr(st, lent, 1, true); err != nil {
			t.Fatal(err)
		}
		scribble(lent)
		if err := apply(st, verbSet, []byte("lent-incr"), &Item{Value: blob.FromString("lent-incr!")}); err != nil {
			t.Fatal(err)
		}
		holds(t, kind.name, st, "lent-incr", "lent-set")
		if err := st.release(); err != nil {
			t.Fatal(err)
		}
	}
}

// chunked reads one chunk per Read call, so a connection's reader refills
// its buffer from the start for each: what a chunk holds lands where the
// last chunk's bytes were.
type chunked struct{ chunks [][]byte }

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestWireSetsCopyKeys: the text and the binary set lend the store the key
// from the connection's buffers. A text set's data block arrives after its
// line and is read over it; a binary set's body, key included, is read over
// the last request's.
func TestWireSetsCopyKeys(t *testing.T) {
	keys := []string{"alpha-key", "bravo-key", "delta-key"}
	text := func(k string) [][]byte {
		return [][]byte{[]byte("set " + k + " 0 0 10\r\n"), []byte(k + "!\r\n")}
	}
	bin := func(k string) [][]byte {
		var h [24]byte
		h[0], h[1], h[4] = binReqMagic, binOpSet, 8
		binary.BigEndian.PutUint16(h[2:], uint16(len(k)))
		binary.BigEndian.PutUint32(h[8:], uint32(8+2*len(k)+1))
		return [][]byte{append(append(append(h[:], make([]byte, 8)...), k...), k+"!"...)}
	}
	for _, proto := range []struct {
		name  string
		req   func(string) [][]byte
		serve func(*Store, *bufio.Reader, *bufio.Writer) error
	}{
		{"text", text, serveText},
		{"binary", bin, serveBinary},
	} {
		for _, kind := range storeKinds {
			st := kind.new(1<<20, func() int64 { return 0 })
			in := &chunked{}
			for _, k := range keys {
				in.chunks = append(in.chunks, proto.req(k)...)
			}
			var out bytes.Buffer
			if err := proto.serve(st, bufio.NewReader(in), bufio.NewWriter(&out)); err != io.EOF {
				t.Fatalf("%s on %s: serve ended with %v", proto.name, kind.name, err)
			}
			holds(t, proto.name+" on "+kind.name, st, keys...)
			if err := st.release(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSimSetCopiesKeys: SimClient.SetFreshT lends the caller's key until its
// continuation runs; rewriting it there leaves both copies of a replicated
// bank holding the original key.
func TestSimSetCopiesKeys(t *testing.T) {
	env, cl := simBank(2, 64)
	cl.SetReplication(2)
	const key = "replicated-key"
	lent := []byte(key)
	if replicaNext(cl, lent, pick(cl, lent)) < 0 {
		t.Fatal("the key has no replica")
	}
	done := false
	env.StartTask("setter", func(tk *sim.Task) {
		cl.SetFreshT(tk, lent, blob.FromString(key+"!"), func() bool { return true }, func(err error) {
			if err != nil {
				t.Errorf("SetFreshT: %v", err)
			}
			scribble(lent)
			done = true
			tk.End()
		})
	})
	env.Run()
	if !done {
		t.Fatal("the set never completed")
	}
	for _, srv := range cl.Servers() {
		holds(t, srv.Node().Name(), srv.Store(), key)
	}
}
