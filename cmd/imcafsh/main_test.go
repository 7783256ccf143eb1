package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// TestGoldenSession replays a recorded session: a file created, written,
// statted and read through the bank, a daemon crashed under it, and the
// counters at the end. Every report is virtual time, so the transcript is
// byte-stable; a change that moves one event of the default cluster moves a
// line here.
func TestGoldenSession(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "session.in"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "session.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run(nil, in, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("session differs from testdata/session.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// A session that ends without "quit" (end of input) exits 0 on a fresh
// line, and an unknown flag or a block size the bank cannot hold is a usage
// error before any cluster is built.
func TestEndOfInputAndBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-mcds", "0"}, strings.NewReader("time\n"), &stdout, &stderr); code != 0 ||
		!strings.HasSuffix(stdout.String(), "imca> virtual time: 0s\nimca> \n") {
		t.Errorf("end of input: exit %d, stdout %q", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-no-such-flag"}, strings.NewReader(""), &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
		!strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("bad flag: exit %d, stdout %q, stderr %q; want 2 and the flag named", code, stdout.String(), stderr.String())
	}
	for _, block := range []string{"0", fmt.Sprint(memcache.MaxItemValueLen + 1)} {
		stderr.Reset()
		if code := run([]string{"-block", block}, strings.NewReader(""), &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), "-block") {
			t.Errorf("-block %s: exit %d, stdout %q, stderr %q; want 2 and the flag named", block, code, stdout.String(), stderr.String())
		}
	}
}

// panicFS is a mount whose Stat panics inside the shell's process body.
type panicFS struct{ gluster.FS }

func (panicFS) Stat(*sim.Proc, string) (*gluster.Stat, error) { panic("injected: stat blew up") }

// TestPanickingCommandEndsTheSession: a panic in a command — here in the
// body of the process it runs, which surfaces from Env.Run — is printed as
// that command's error, and the shell then says the simulation state is
// lost and exits 2 without running another command. It used to carry on,
// and answer everything after with a deadlock report for the process the
// panic had stranded.
func TestPanickingCommandEndsTheSession(t *testing.T) {
	c := cluster.New(cluster.Options{})
	var stdout, stderr strings.Builder
	sh := &shell{c: c, fs: panicFS{c.Mounts[0].FS}, fds: make(map[string]gluster.FD),
		col: optrace.NewCollector(), reg: telemetry.NewRegistry(), out: &stdout}
	code := sh.loop(strings.NewReader("create /a\nstat /a\ntime\nquit\n"), &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "simulation state is lost") {
		t.Errorf("exit %d, stderr %q; want 2 and the state reported lost", code, stderr.String())
	}
	if out := stdout.String(); !strings.HasSuffix(out, "imca> error: injected: stat blew up\n") || strings.Contains(out, "virtual time") {
		t.Errorf("stdout %q; want the panic as the last command's error and no command after it", out)
	}
}
