package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"imca/internal/blob"
)

// readBinHeader reads one binary-protocol header from a plain reader; the
// daemon itself decodes headers in place in its bufio buffer.
func readBinHeader(r io.Reader) (binHeader, error) {
	var buf [24]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return binHeader{}, err
	}
	return decodeBinHeader(buf[:]), nil
}

func TestNumberCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true}, {"007", 7, true}, {"18446744073709551615", 18446744073709551615, true},
		{"18446744073709551616", 0, false}, {"99999999999999999999", 0, false},
		{"", 0, false}, {"+1", 0, false}, {"-1", 0, false}, {"1 ", 0, false}, {"1_0", 0, false}, {"0x10", 0, false},
	} {
		if got, ok := parseUint([]byte(tc.in)); got != tc.want || ok != tc.ok {
			t.Errorf("parseUint(%q) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"-0", 0, true}, {"+60", 60, true}, {"-1", -1, true},
		{"9223372036854775807", 9223372036854775807, true}, {"9223372036854775808", 0, false},
		{"-9223372036854775807", -9223372036854775807, true},
		{"", 0, false}, {"-", 0, false}, {"+", 0, false}, {"--1", 0, false}, {"1-", 0, false},
	} {
		if got, ok := parseInt([]byte(tc.in)); got != tc.want || ok != tc.ok {
			t.Errorf("parseInt(%q) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSplitFields(t *testing.T) {
	var f [3][]byte
	if n := splitFields([]byte(" \tset  k\v0\f1\r"), f[:]); n != 4 || string(f[0]) != "set" || string(f[1]) != "k" || string(f[2]) != "0" {
		t.Errorf("splitFields = %d %q", n, f)
	}
	if n := splitFields([]byte(" \t "), f[:]); n != 0 {
		t.Errorf("blank line has %d fields", n)
	}
	for _, tc := range []struct {
		in, rest string
		noreply  bool
	}{
		{" k noreply", " k ", true}, {" k noreply \t", " k ", true}, {" noreply", " ", true},
		{" k xnoreply", " k xnoreply", false}, {" noreply k", " noreply k", false}, {"", "", false},
	} {
		if rest, noreply := cutNoreply([]byte(tc.in)); string(rest) != tc.rest || noreply != tc.noreply {
			t.Errorf("cutNoreply(%q) = %q, %v", tc.in, rest, noreply)
		}
	}
}

// A command line of only blanks used to index an empty field list and
// panic; with no recover on the connection goroutine, that killed the
// daemon.
func TestBlankCommandLine(t *testing.T) {
	if out := talk(t, " \r\n\t \t\r\nget a\r\n"); out != "ERROR\r\nERROR\r\nEND\r\n" {
		t.Errorf("out = %q", out)
	}

	_, addr := startServer(t)
	for i := 0; i < 2; i++ { // the second connection shows the daemon survived the first
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte(" \r\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil || line != "ERROR\r\n" {
			t.Fatalf("connection %d: reply %q, %v", i, line, err)
		}
	}
}

// An announced length near MaxInt64 used to reach make([]byte, n+2).
func TestHugeAnnouncedLength(t *testing.T) {
	for _, in := range []string{
		"add k 0 0 9223372036854775806\r\nabc",
		"set k 0 0 9223372036854775807\r\nabc",
	} {
		if out := talk(t, in); out != "SERVER_ERROR object too large for cache\r\n" {
			t.Errorf("%q: out = %q", in, out)
		}
	}
	if out := talk(t, "set k 0 0 9223372036854775806 noreply\r\nabc"); out != "" {
		t.Errorf("noreply: out = %q", out)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A value over MaxValueLen used to be buffered whole before the size check;
// now it is refused first and skipped through a fixed-size buffer.
func TestOversizedValueIsSwallowedUnbuffered(t *testing.T) {
	const announced = 64 << 20
	text := io.MultiReader(
		strings.NewReader(fmt.Sprintf("set k 0 0 %d\r\n", announced)),
		io.LimitReader(zeros{}, announced),
		strings.NewReader("\r\nget k\r\nversion\r\n"))
	var bh [24]byte
	bh[0], bh[1], bh[4] = binReqMagic, binOpSet, 8
	bh[3] = 1                                    // key length
	bh[8], bh[9], bh[10], bh[11] = 0x04, 0, 0, 9 // body: 64 MB + extras + key
	binary := io.MultiReader(
		strings.NewReader(string(bh[:])),
		io.LimitReader(zeros{}, announced+9),
		strings.NewReader(string(binFrame(binOpNoop, "", nil, nil, 0))))

	for _, tc := range []struct {
		name  string
		in    io.Reader
		serve func(*Store, io.ReadWriter) error
		want  string
	}{
		{"text", text, ServeConn, "SERVER_ERROR object too large for cache\r\nEND\r\nVERSION 1.2.8-imca\r\n"},
		{"binary", binary, ServeBinaryConn, "\x81\x01\x00\x00\x00\x00\x00\x03" + strings.Repeat("\x00", 16) + "\x81\x0a" + strings.Repeat("\x00", 10) + "\xde\xad\xbe\xef" + strings.Repeat("\x00", 8)},
	} {
		var out strings.Builder
		var err error
		n := allocatedBy(func() {
			err = tc.serve(newTestStore(4), struct {
				io.Reader
				io.Writer
			}{tc.in, &out})
		})
		if err != io.EOF {
			t.Errorf("%s: serve returned %v, want EOF after the last request", tc.name, err)
		}
		if out.String() != tc.want {
			t.Errorf("%s: out = %q, want %q", tc.name, out.String(), tc.want)
		}
		if n > 1<<20 {
			t.Errorf("%s: skipping a %d-byte value allocated %d bytes", tc.name, announced, n)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// readLine used to grow without bound on a stream with no newline.
func TestCommandLineLengthIsBounded(t *testing.T) {
	key := strings.Repeat("k", MaxKeyLen)
	fits := "get" + strings.Repeat(" "+key, 8)
	fits += " " + strings.Repeat("j", maxLineLen-len(fits)-1)
	for _, tc := range []struct {
		name, in, out string
		err           error
	}{
		{"a line of exactly the limit", "set " + key + " 0 0 1\r\nx\r\n" + fits + "\r\n",
			"STORED\r\n" + strings.Repeat("VALUE "+key+" 0 1\r\nx\r\n", 8) + "END\r\n", io.EOF},
		{"one byte more", fits + "j\r\nget a\r\n", "CLIENT_ERROR line too long\r\n", errLineTooLong},
		{"longer than the read buffer", "get " + strings.Repeat("k", 3<<20) + "\r\nget a\r\n", "CLIENT_ERROR line too long\r\n", errLineTooLong},
		{"no newline at all", strings.Repeat("x", 3<<20), "CLIENT_ERROR line too long\r\n", errLineTooLong},
	} {
		in := &countingReader{r: strings.NewReader(tc.in)}
		var out strings.Builder
		err := ServeConn(newTestStore(4), struct {
			io.Reader
			io.Writer
		}{in, &out})
		if err != tc.err || out.String() != tc.out {
			t.Errorf("%s: err %v, out %.80q; want %v, %.80q", tc.name, err, out.String(), tc.err, tc.out)
		}
		if tc.err == errLineTooLong && in.n > 2*4096 {
			t.Errorf("%s: read %d bytes before giving up", tc.name, in.n)
		}
	}
}

// The client trusted the server's announced length the same way.
func TestClientRejectsOversizedReply(t *testing.T) {
	for _, reply := range []string{
		"VALUE k 0 9223372036854775806\r\nabc\r\nEND\r\n",
		"VALUE k 0 1048577\r\nabc\r\nEND\r\n",
	} {
		var err error
		n := allocatedBy(func() { _, err = scriptedClient(reply).Get("k") })
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%.40q: Get returned %v, want ErrTooLarge", reply, err)
		}
		if n > 64<<10 {
			t.Errorf("%.40q: Get allocated %d bytes", reply, n)
		}
	}
	for _, reply := range []string{
		"VALUE k 0\r\nEND\r\n", "VALUE k x 1\r\na\r\nEND\r\n", "VALUE k 4294967296 1\r\na\r\nEND\r\n",
		"VALUE other 0 1\r\na\r\nEND\r\n", "VALUE k 0 1\r\nabc\r\nEND\r\n", "VALUE k 0 1 7 8\r\na\r\nEND\r\n", "VALUE k 0 1 x\r\na\r\nEND\r\n", "SERVER_ERROR busy\r\n",
	} {
		if it, err := scriptedClient(reply).Get("k"); err == nil || err == ErrCacheMiss {
			t.Errorf("%q: Get returned %+v, %v; want a protocol error", reply, it, err)
		}
	}
}

// TestClientLatchesFailedReply: a reply the client gives up on part-way
// leaves bytes on the connection that would answer the next call, so the
// first such failure takes the connection out of service and every later
// call returns it again; a one-line verdict the client does not know is a
// complete reply and the connection stays in.
func TestClientLatchesFailedReply(t *testing.T) {
	for _, stream := range staleReplies {
		cl := pipeClient(t, []byte(stream))
		_, first := cl.Get("k")
		if first == nil || first == ErrCacheMiss {
			t.Errorf("%.30q: Get returned %v, want a protocol error", stream, first)
		}
		if it, err := cl.Get("k"); it != nil || err != first {
			t.Errorf("%.30q: the next Get returned %+v, %v; want the first failure again: %v", stream, it, err, first)
		}
	}
	peer := &scriptedPeer{reply: []byte("BUSY\r\n")}
	cl := &Client{selector: CRC32Selector{}, conns: []*clientConn{newClientConn("", peer)}}
	if err := cl.Delete("k"); err == nil || !strings.Contains(err.Error(), "BUSY") {
		t.Errorf("Delete answered BUSY returned %v", err)
	}
	peer.reply = []byte("VALUE k 0 2\r\nok\r\nEND\r\n")
	if it, err := cl.Get("k"); err != nil || string(it.Value.Bytes()) != "ok" || peer.closed {
		t.Errorf("after an unknown verdict the next Get returned %+v, %v; the connection should still be in service", it, err)
	}
}

// The typed errors a server can answer with come back as themselves.
// TestClientRefusesInvalidKeys: a key with a space would be read as two
// keys and one with CRLF would inject a command, so every client verb —
// each key of a GetMulti included — returns ErrBadKey with not one byte
// written, flushed or left in the connection's buffer.
func TestClientRefusesInvalidKeys(t *testing.T) {
	bad := []string{"", "a b", "k\r\nflush_all", "tab\there", "nul\x00", "del\x7f", strings.Repeat("k", MaxKeyLen+1)}
	verbs := map[string]func(*Client, string) error{
		"Get":  func(cl *Client, k string) error { _, err := cl.Get(k); return err },
		"Gets": func(cl *Client, k string) error { _, err := cl.Gets(k); return err },
		"GetMulti": func(cl *Client, k string) error {
			_, err := cl.GetMulti([]string{"good1", k, "good2"})
			return err
		},
		"Set":            func(cl *Client, k string) error { return cl.Set(&Item{Key: k, Value: blob.FromString("v")}) },
		"Add":            func(cl *Client, k string) error { return cl.Add(&Item{Key: k, Value: blob.FromString("v")}) },
		"Replace":        func(cl *Client, k string) error { return cl.Replace(&Item{Key: k, Value: blob.FromString("v")}) },
		"CompareAndSwap": func(cl *Client, k string) error { return cl.CompareAndSwap(&Item{Key: k, CAS: 1}) },
		"Delete":         func(cl *Client, k string) error { return cl.Delete(k) },
		"Incr":           func(cl *Client, k string) error { _, err := cl.Incr(k, 1); return err },
		"Decr":           func(cl *Client, k string) error { _, err := cl.Decr(k, 1); return err },
	}
	for name, verb := range verbs {
		for _, k := range bad {
			peer := &scriptedPeer{reply: []byte("END\r\n")}
			cc := newClientConn("", peer)
			cl := &Client{selector: CRC32Selector{}, conns: []*clientConn{cc}}
			if err := verb(cl, k); err != ErrBadKey {
				t.Errorf("%s(%q) = %v, want ErrBadKey", name, k, err)
			}
			if cc.w.Buffered() != 0 || peer.wrote != 0 {
				t.Errorf("%s(%q) left %d bytes in the buffer and put %d on the wire, want none",
					name, k, cc.w.Buffered(), peer.wrote)
			}
		}
	}
}

func TestClientDecodesVerdicts(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "big", Value: blob.FromBytes(make([]byte, MaxValueLen+1))}); err != ErrTooLarge {
		t.Errorf("oversized set = %v, want ErrTooLarge", err)
	}
	if err := cl.Set(&Item{Key: strings.Repeat("k", MaxKeyLen+1), Value: blob.FromString("v")}); err != ErrBadKey {
		t.Errorf("long-key set = %v, want ErrBadKey", err)
	}
	if err := cl.Set(&Item{Key: "s", Value: blob.FromString("abc")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Incr("s", 1); err != ErrNotNumeric {
		t.Errorf("incr of text = %v, want ErrNotNumeric", err)
	}
	if _, err := cl.Incr("absent", 1); err != ErrCacheMiss {
		t.Errorf("incr of nothing = %v, want ErrCacheMiss", err)
	}
	if it, err := cl.Get("s"); err != nil || string(it.Value.Bytes()) != "abc" {
		t.Errorf("the connection lost sync: %+v, %v", it, err)
	}
}

// A multi-get whose keys pass the daemon's line limit goes out as several
// get lines on the one connection.
func TestTCPClientGetMultiSplitsLongRequests(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("%0200d", i)
		if i%2 == 0 {
			if err := srv.Store().Set(&Item{Key: keys[i], Value: blob.FromString(keys[i][190:])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := cl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys)/2 {
		t.Errorf("GetMulti returned %d items, want %d", len(got), len(keys)/2)
	}
	for i := 0; i < len(keys); i += 2 {
		if it := got[keys[i]]; it == nil || string(it.Value.Bytes()) != keys[i][190:] {
			t.Errorf("key %d wrong or missing: %+v", i, it)
		}
	}
	if it, err := cl.Get(keys[0]); err != nil || it.Key != keys[0] {
		t.Errorf("the connection lost sync: %+v, %v", it, err)
	}
}

// GetMulti must have every server's request on the wire before it waits
// for any reply: each of these two servers answers only once both have
// been asked, so a client that finishes server 1 before writing to server
// 2 never returns.
func TestTCPClientGetMultiScattersBeforeItGathers(t *testing.T) {
	var asked sync.WaitGroup
	asked.Add(2)
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			line, err := bufio.NewReader(c).ReadString('\n')
			if err != nil {
				return
			}
			asked.Done()
			asked.Wait()
			key := strings.Fields(line)[1]
			fmt.Fprintf(c, "VALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(key), key)
		}()
	}
	cl, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var keys []string // one key per server
	for i, seen := 0, [2]bool{}; len(keys) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s := cl.selector.Pick(k, 2); !seen[s] {
			seen[s] = true
			keys = append(keys, k)
		}
	}
	type result struct {
		items map[string]*Item
		err   error
	}
	done := make(chan result, 1)
	go func() {
		items, err := cl.GetMulti(keys)
		done <- result{items, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		for _, k := range keys {
			if it := r.items[k]; it == nil || string(it.Value.Bytes()) != k {
				t.Errorf("key %s wrong or missing: %+v", k, it)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetMulti waited for one server's reply before asking the other")
	}
}
