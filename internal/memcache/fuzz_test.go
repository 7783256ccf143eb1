package memcache

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// FuzzServeAutoConn feeds arbitrary bytes to the daemon's connection
// handler — protocol sniffing, then the text or the binary loop — against
// a store of one slab page, of each kind (storeKinds). Whatever arrives, the
// handler must return without panicking, leave the store within its memory
// limit and consistent with its own counters, and answer the same bytes
// whichever kind of store is behind it. The seeds are the requests of both
// transcript tables — every text verb and every binary opcode — plus
// testdata/fuzz/FuzzServeAutoConn (the two crashers this target was written
// after, over-long lines, malformed binary frames); ordinary `go test`
// replays them all.
func FuzzServeAutoConn(f *testing.F) {
	for _, tc := range transcripts {
		if len(tc.in) < 64<<10 {
			f.Add([]byte(tc.in))
		}
	}
	for _, tc := range binaryTranscripts {
		if len(tc.in) < 64<<10 {
			f.Add([]byte(tc.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		var first []byte
		for k, kind := range storeKinds {
			st := kind.new(limit, func() int64 { return transcriptClock })
			var out bytes.Buffer
			// Any error is an acceptable way to end a connection.
			_ = ServeAutoConn(st, readWriter{bytes.NewReader(data), &out})
			stats := st.Stats()
			if stats.Bytes < 0 || stats.Bytes > limit {
				t.Errorf("%s store holds %d bytes, limit %d", kind.name, stats.Bytes, limit)
			}
			if stats.CurrItems != uint64(st.Len()) {
				t.Errorf("%s store: curr_items %d, table holds %d", kind.name, stats.CurrItems, st.Len())
			}
			if err := st.release(); err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				first = out.Bytes()
			} else if !bytes.Equal(out.Bytes(), first) {
				t.Errorf("the %s store answered\n%.300q\nthe %s store\n%.300q", kind.name, out.Bytes(), storeKinds[0].name, first)
			}
		}
	})
}

// pipeClient is a one-server Client whose server reads and drops whatever
// it is asked, sends stream, and hangs up once the client has read it all.
func pipeClient(t testing.TB, stream []byte) *Client {
	cli, srv := net.Pipe()
	go io.Copy(io.Discard, srv)
	go func() {
		srv.Write(stream)
		srv.Close()
	}()
	cl := &Client{selector: CRC32Selector{}, conns: []*clientConn{newClientConn("pipe", cli)}}
	t.Cleanup(func() { cl.Close() }) // ends both goroutines, wherever they are
	return cl
}

// clientCalls are the calls FuzzClientReplies makes first, by index.
var clientCalls = []func(cl *Client) (data bool, err error){
	func(cl *Client) (bool, error) { it, err := cl.Get("k"); return it != nil, err },
	func(cl *Client) (bool, error) { it, err := cl.Gets("k"); return it != nil, err },
	func(cl *Client) (bool, error) { m, err := cl.GetMulti([]string{"a", "k", "b"}); return m != nil, err },
	func(cl *Client) (bool, error) { _, err := cl.Incr("n", 1); return err == nil, err },
	func(cl *Client) (bool, error) { err := cl.Delete("k"); return false, err },
	func(cl *Client) (bool, error) { m, err := cl.ServerStats(); return m != nil, err },
}

// staleReplies are server streams whose first reply the client cannot
// parse or finish while the rest reads as a good answer to the next get of
// k: the four ways readValues gives up mid-reply, and a line it cannot
// hold.
var staleReplies = []string{
	"VALUE k 0 1 x\r\nVALUE k 0 5\r\nstale\r\nEND\r\n",
	"VALUE k 0 1048577\r\nVALUE k 0 5\r\nstale\r\nEND\r\n",
	"VALUE other 0 1\r\nEND\r\nVALUE k 0 5\r\nstale\r\nEND\r\n",
	"VALUE k 0 1\r\nabcd\r\nVALUE k 0 5\r\nstale\r\nEND\r\n",
	strings.Repeat("x", maxLineLen+1) + "\r\nVALUE k 0 5\r\nstale\r\nEND\r\n",
}

// isVerdict reports whether err is a complete one-line reply read as an
// error: a miss, a verdict from the table, or a line the client does not
// know. Only these leave the connection in service.
func isVerdict(err error) bool {
	for _, v := range verdicts {
		if err == v.err {
			return true
		}
	}
	return err == ErrCacheMiss || strings.HasPrefix(err.Error(), "memcache: server answered ")
}

// FuzzClientReplies feeds arbitrary server bytes to the TCP client's reply
// parser through one of its calls. Whatever arrives, the call must return
// without panicking or hanging; an error is either a complete one-line
// verdict or takes the connection out of service; and a connection out of
// service answers every later call with the error that took it out, never
// with data — the unread rest of a broken reply must not be mistaken for
// the next call's answer. The seeds are the transcript table's replies and
// staleReplies under every call; ordinary `go test` replays them all.
func FuzzClientReplies(f *testing.F) {
	for call := range clientCalls {
		for _, tc := range transcripts {
			if len(tc.out) < 64<<10 {
				f.Add([]byte(tc.out), uint8(call))
			}
		}
		for _, s := range staleReplies {
			f.Add([]byte(s), uint8(call))
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte, call uint8) {
		cl := pipeClient(t, stream)
		_, err := clientCalls[int(call)%len(clientCalls)](cl)
		latched := cl.conns[0].err
		if latched == nil {
			if err != nil && !isVerdict(err) {
				t.Errorf("%v left the connection in service", err)
			}
			return
		}
		if err == nil {
			t.Errorf("the call succeeded and left the connection failed with %v", latched)
		}
		for i, again := range clientCalls {
			if data, err := again(cl); data || err != latched {
				t.Errorf("call %d on the failed connection returned data=%v, %v; want only %v", i, data, err, latched)
			}
		}
	})
}
