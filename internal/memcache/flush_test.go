package memcache

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestReplyNotHeldBehindPartialCommand: a finished reply leaves before the
// daemon blocks reading the rest of the next command. Each shape arrives in
// two writes — a complete command followed by the start of another, then
// the remainder — and the peer reads the first reply between them, as a
// client that waits for reply 1 before finishing command 2 would. net.Pipe
// is unbuffered, so the first write returns only once the daemon has
// consumed it, and a reply parked in the daemon's writer shows up as the
// pipe's deadline expiring instead of a hang.
func TestReplyNotHeldBehindPartialCommand(t *testing.T) {
	get := string(binFrame(binOpGet, "a", nil, nil, 0))
	set := string(binFrame(binOpSet, "k", setExtras(0, 0), []byte("hello"), 0))
	// serve is what the daemon answers when in arrives whole.
	serve := func(in string) []byte {
		var out bytes.Buffer
		if err := ServeAutoConn(newTestStore(16), readWriter{r: strings.NewReader(in), w: &out}); err != io.EOF {
			t.Fatalf("reference exchange: %v", err)
		}
		return out.Bytes()
	}
	for _, c := range []struct {
		name       string
		cmd1, cmd2 string
		cut        int // bytes of cmd2 that travel with cmd1
	}{
		{"text/unterminated line", "get a\r\n", "get b\r\n", len("get b")},
		{"text/data block in flight", "get a\r\n", "set k 0 0 5\r\nhello\r\n", len("set k 0 0 5\r\n")},
		{"text/data block cut short", "get a\r\n", "set k 0 0 5\r\nhello\r\n", len("set k 0 0 5\r\nhel")},
		{"binary/partial header", get, set, 10},
		{"binary/body in flight", get, set, 24},
		{"binary/body cut short", get, set, 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			reply1 := serve(c.cmd1)
			reply2 := serve(c.cmd1 + c.cmd2)[len(reply1):]
			peer, daemon := net.Pipe()
			served := make(chan error, 1)
			go func() { served <- ServeAutoConn(newTestStore(16), daemon) }()
			defer func() {
				peer.Close()
				<-served
			}()
			if err := peer.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			expect := func(what string, want []byte) {
				t.Helper()
				got := make([]byte, len(want))
				if _, err := io.ReadFull(peer, got); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s = %q, want %q", what, got, want)
				}
			}
			if _, err := peer.Write([]byte(c.cmd1 + c.cmd2[:c.cut])); err != nil {
				t.Fatal(err)
			}
			expect("first reply, before the second command is complete", reply1)
			if _, err := peer.Write([]byte(c.cmd2[c.cut:])); err != nil {
				t.Fatal(err)
			}
			expect("second reply", reply2)
		})
	}
}
