package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"

	"imca/internal/blob"
	"imca/internal/memcache"
)

// The daemon prints the address it bound, serves a real client, and on the
// stop signal closes down cleanly and exits 0.
func TestServesUntilStopped(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal)
	var stderr strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-l", "127.0.0.1:0", "-m", "1"}, pw, &stderr, stop)
		pw.Close()
	}()

	out := bufio.NewReader(pr)
	line, err := out.ReadString('\n')
	if err != nil {
		t.Fatalf("no first line (%v); exit %d, stderr %q", err, <-exit, stderr.String())
	}
	var addr string
	var mb int
	if _, err := fmt.Sscanf(line, "memcached listening on %s (%d MB)", &addr, &mb); err != nil || mb != 1 {
		t.Fatalf("first line %q: want the bound address and 1 MB (%v)", line, err)
	}

	cl, err := memcache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(&memcache.Item{Key: "k", Value: blob.FromString("hello")}); err != nil {
		t.Fatal(err)
	}
	if it, err := cl.Get("k"); err != nil || string(it.Value.Bytes()) != "hello" {
		t.Fatalf("get k = %v, %v; want hello", it, err)
	}
	cl.Close()

	stop <- syscall.SIGTERM
	rest, _ := io.ReadAll(out)
	if code := <-exit; code != 0 || !strings.Contains(string(rest), "shutting down") || stderr.Len() != 0 {
		t.Errorf("after SIGTERM: exit %d, stdout %q, stderr %q; want 0 and \"shutting down\"", code, rest, stderr.String())
	}
	if _, err := memcache.Dial(addr); err == nil {
		t.Errorf("%s still accepts connections after shutdown", addr)
	}
}

// A memory limit that would yield a store holding nothing is a usage
// error, reported before anything listens.
func TestBadMemoryLimit(t *testing.T) {
	for _, m := range []string{"0", "-5", "8796093022208"} { // the last is 2^43: << 20 overflows
		var stdout, stderr strings.Builder
		code := run([]string{"-l", "127.0.0.1:0", "-m", m}, &stdout, &stderr, nil)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-m "+m) {
			t.Errorf("-m %s: exit %d, stdout %q, stderr %q; want 2, nothing listening, and the flag named", m, code, stdout.String(), stderr.String())
		}
	}
}
