package gluster

import (
	"slices"
	"sync"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// Lifetimes of the per-layer op frames (fuseOp, clientOp, serverOp,
// posixOp), driven with poison mode on (TestMain) so a pooled frame
// touched after its release panics instead of quietly corrupting a later
// call.

// frameVolume is fuse → protocol client → daemon → posix, with one io-thread
// and a slow disk so a cold read holds the daemon for milliseconds. ref and
// names are the reference model: what the file must hold and what its
// directory must list.
type frameVolume struct {
	env   *sim.Env
	net   *fabric.Network
	px    *Posix
	srv   *Server
	cli   *Client
	fuse  *Fuse
	fd    FD
	ref   []byte
	names []string
}

const (
	frameDir  = "/frames"
	framePath = frameDir + "/f"
)

func newFrameVolume(t *testing.T) *frameVolume {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode, cliNode := net.NewNode("server", 8), net.NewNode("client0", 8)
	dev := disk.New(env, disk.Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
	v := &frameVolume{env: env, net: net, ref: blob.Synthetic(7, 0, 64<<10).Bytes(), names: []string{"f"}}
	// Readahead off and one io-thread, so each request's disk and daemon
	// waits are its own.
	v.px = NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	v.px.readahead = 0
	v.srv = NewServer(srvNode, v.px)
	v.srv.threads = sim.NewResource(env, 1)
	v.cli = NewClient(cliNode, srvNode)
	v.fuse = NewFuse(cliNode, v.cli)
	env.Process("setup", func(p *sim.Proc) {
		var err error
		if v.fd, err = v.fuse.Create(p, framePath); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err = v.fuse.Write(p, v.fd, 0, blob.FromBytes(v.ref)); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	env.Run()
	return v
}

// list keeps the directory's reference listing: name added or removed.
func (v *frameVolume) list(name string, present bool) {
	i, found := slices.BinarySearch(v.names, name)
	switch {
	case present && !found:
		v.names = slices.Insert(v.names, i, name)
	case !present && found:
		v.names = slices.Delete(v.names, i, i+1)
	}
}

// holdThread issues a cold 64 KB read: the only io-thread is busy for a
// seek and more.
func (v *frameVolume) holdThread(t *testing.T, wantErr error) {
	v.px.Cache().Clear()
	v.fuse.ReadT(v.env.ContextTask("blocker"), v.fd, 0, 64<<10, func(got blob.Blob, err error) {
		if err != wantErr || (err == nil && !got.Equal(blob.FromBytes(v.ref))) {
			t.Errorf("blocking read: %d bytes, err %v, want err %v", got.Len(), err, wantErr)
		}
	})
}

// churn runs n further operations of every verb through the mount against
// the reference, reusing whatever the pools hold.
func (v *frameVolume) churn(t *testing.T, n int) {
	t.Helper()
	rng := newRand(99)
	fuse := v.fuse
	v.env.Process("churn", func(p *sim.Proc) {
		for op := 0; op < n; op++ {
			off := int64(rng.next() % 60000)
			size := int64(rng.next()%4000) + 1
			switch rng.next() % 6 {
			case 0:
				payload := blob.Synthetic(rng.next()|1, off, size)
				if _, err := fuse.Write(p, v.fd, off, payload); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				copy(v.ref[off:], payload.Bytes())
			case 1:
				got, err := fuse.Read(p, v.fd, off, size)
				if err != nil || !got.Equal(blob.FromBytes(v.ref[off:off+size])) {
					t.Fatalf("op %d read [%d,%d): %d bytes, %v", op, off, off+size, got.Len(), err)
				}
			case 2:
				st, err := fuse.Stat(p, framePath)
				if err != nil || st.Size != int64(len(v.ref)) {
					t.Fatalf("op %d stat: %+v, %v", op, st, err)
				}
			case 3: // a second descriptor: open, read through it, close, read again
				fd, err := fuse.Open(p, framePath)
				if err != nil {
					t.Fatalf("op %d open: %v", op, err)
				}
				got, err := fuse.Read(p, fd, off, size)
				if err != nil || !got.Equal(blob.FromBytes(v.ref[off:off+size])) {
					t.Fatalf("op %d read through fd %d: %d bytes, %v", op, fd, got.Len(), err)
				}
				if err := fuse.Close(p, fd); err != nil {
					t.Fatalf("op %d close: %v", op, err)
				}
				if _, err := fuse.Read(p, fd, off, size); err != ErrBadFD {
					t.Fatalf("op %d read of a closed descriptor: %v, want ErrBadFD", op, err)
				}
			case 4: // a scratch file's whole life
				path := frameDir + "/scratch"
				if _, err := fuse.Create(p, path); err != nil {
					t.Fatalf("op %d create: %v", op, err)
				}
				if err := fuse.Truncate(p, path, size); err != nil {
					t.Fatalf("op %d truncate: %v", op, err)
				}
				if st, err := fuse.Stat(p, path); err != nil || st.Size != size {
					t.Fatalf("op %d stat after truncate to %d: %+v, %v", op, size, st, err)
				}
				if err := fuse.Unlink(p, path); err != nil {
					t.Fatalf("op %d unlink: %v", op, err)
				}
				if _, err := fuse.Stat(p, path); err != ErrNotExist {
					t.Fatalf("op %d stat after unlink: %v, want ErrNotExist", op, err)
				}
			default:
				dir := "d" + string(rune('a'+rng.next()%8))
				want := error(nil)
				if _, found := slices.BinarySearch(v.names, dir); found {
					want = ErrExist
				}
				if err := fuse.Mkdir(p, frameDir+"/"+dir); err != want {
					t.Fatalf("op %d mkdir %s: %v, want %v", op, dir, err, want)
				}
				v.list(dir, true)
				got, err := fuse.Readdir(p, frameDir)
				if err != nil || !slices.Equal(got, v.names) {
					t.Fatalf("op %d readdir: %v, %v; want %v", op, got, err, v.names)
				}
			}
		}
	})
	v.env.Run()
}

// prepare makes a round's scratch files — one to unlink, one to truncate —
// and a spare descriptor to close, on a live brick.
func (v *frameVolume) prepare(t *testing.T, round string) (spare FD) {
	t.Helper()
	fuse := v.fuse
	v.env.Process("prepare", func(p *sim.Proc) {
		for _, name := range []string{"-gone", "-cut"} {
			path := frameDir + "/" + round + name
			fd, err := fuse.Create(p, path)
			if err != nil {
				t.Fatalf("prepare %s: %v", path, err)
			}
			if _, err := fuse.Write(p, fd, 0, blob.Synthetic(3, 0, 3000)); err != nil {
				t.Fatalf("prepare %s: %v", path, err)
			}
		}
		var err error
		if spare, err = fuse.Open(p, framePath); err != nil {
			t.Fatalf("prepare: open: %v", err)
		}
	})
	v.env.Run()
	v.list(round+"-gone", true)
	v.list(round+"-cut", true)
	return spare
}

// everyVerb issues one operation of each verb at once, each on its own
// task; done receives every outcome. The caller decides what happens to
// them in flight, and settles the reference with applied afterwards.
func (v *frameVolume) everyVerb(t *testing.T, round string, spare FD, payload blob.Blob, done func(what string, err error)) {
	t.Helper()
	fuse, dir := v.fuse, frameDir+"/"+round
	task := v.env.ContextTask
	errK := func(what string) func(error) { return func(err error) { done(what, err) } }
	fdK := func(what string) func(FD, error) { return func(_ FD, err error) { done(what, err) } }
	fuse.ReadT(task("read"), v.fd, 100, 4096, func(got blob.Blob, err error) {
		if err == nil && !got.Equal(blob.FromBytes(v.ref[100:100+4096])) {
			t.Errorf("%s: read returned the wrong %d bytes", round, got.Len())
		}
		done("read", err)
	})
	fuse.WriteT(task("write"), v.fd, 20000, payload, func(n int64, err error) {
		if err == nil && n != payload.Len() {
			t.Errorf("%s: write stored %d of %d bytes", round, n, payload.Len())
		}
		done("write", err)
	})
	fuse.StatT(task("stat"), framePath, func(st *Stat, err error) {
		if err == nil && st.Size != int64(len(v.ref)) {
			t.Errorf("%s: stat size %d, want %d", round, st.Size, len(v.ref))
		}
		done("stat", err)
	})
	fuse.ReaddirT(task("readdir"), frameDir, func(_ []string, err error) { done("readdir", err) })
	fuse.CreateT(task("create"), dir+"-made", fdK("create"))
	fuse.OpenT(task("open"), framePath, fdK("open"))
	fuse.CloseT(task("close"), spare, errK("close"))
	fuse.UnlinkT(task("unlink"), dir+"-gone", errK("unlink"))
	fuse.MkdirT(task("mkdir"), dir+"-dir", errK("mkdir"))
	fuse.TruncateT(task("truncate"), dir+"-cut", 100, errK("truncate"))
}

// applied settles the reference after a round whose mutations the daemon
// did (or did not) apply, and checks the brick agrees.
func (v *frameVolume) applied(t *testing.T, round string, payload blob.Blob, did bool) {
	t.Helper()
	cutSize := int64(3000)
	if did {
		copy(v.ref[20000:], payload.Bytes())
		v.list(round+"-made", true)
		v.list(round+"-dir", true)
		v.list(round+"-gone", false)
		cutSize = 100
	}
	v.env.Process("settle", func(p *sim.Proc) {
		if st, err := v.fuse.Stat(p, frameDir+"/"+round+"-cut"); err != nil || st.Size != cutSize {
			t.Errorf("%s: truncated file: %+v, %v; want size %d", round, st, err, cutSize)
		}
		if got, err := v.fuse.Readdir(p, frameDir); err != nil || !slices.Equal(got, v.names) {
			t.Errorf("%s: readdir %v, %v; want %v", round, got, err, v.names)
		}
	})
	v.env.Run()
}

// TestAbandonedRPCsThenReuse: one operation of every verb queues behind the
// brick's io-thread when the link is cut: the callers are aborted at the cut
// instant, but the daemon holds their requests and still serves them. The
// client frames own those requests, so they must stay out of the pool until
// the fabric recycles the requests — not return when the (error)
// continuation runs — and a thousand further operations over the same pools
// must see what the reference holds, the abandoned mutations included.
func TestAbandonedRPCsThenReuse(t *testing.T) {
	v := newFrameVolume(t)
	v.net.EnableFaults()
	payload := blob.Synthetic(11, 20000, 3000)
	abandoned := 0
	spare := v.prepare(t, "cut")
	v.holdThread(t, fabric.ErrUnreachable)
	v.everyVerb(t, "cut", spare, payload, func(what string, err error) {
		if err != fabric.ErrUnreachable {
			t.Errorf("%s queued behind the io-thread: err = %v, want ErrUnreachable", what, err)
		}
		if len(v.cli.ops) != 0 {
			t.Errorf("%s: %d client frames pooled while every request is still at the daemon", what, len(v.cli.ops))
		}
		abandoned++
	})
	// One more read, traced: the span must say why the RPC failed.
	col := optrace.NewCollector()
	traced := v.env.ContextTask("traced")
	col.Begin(traced, "read")
	v.fuse.ReadT(traced, v.fd, 0, 512, func(_ blob.Blob, err error) {
		col.End(traced)
		abandoned++
	})
	// The partition is over the instant it has aborted the calls in flight,
	// so the late responses cross a healed link.
	v.env.Defer(time.Millisecond, func() {
		v.net.CutLink("client0", "server")
		v.net.HealLink("client0", "server")
	})
	v.env.Run()
	v.applied(t, "cut", payload, true)

	const inFlight = 12 // the ten verbs, the blocker, the traced read
	if abandoned != inFlight-1 || v.cli.rpcErrors != inFlight {
		t.Fatalf("abandoned %d operations, %d rpc errors; want %d and %d", abandoned, v.cli.rpcErrors, inFlight-1, inFlight)
	}
	labelled := false
	for _, s := range col.Last.Spans {
		if s.Layer == optrace.LayerProtocol {
			labelled = s.Attr("result") == "unreachable" && len(s.Attrs) == 1
		}
	}
	if !labelled {
		t.Errorf("the cut RPC's protocol span is not labelled result=unreachable, and that alone: %+v", col.Last.Spans)
	}
	if len(v.cli.ops) != inFlight || len(v.srv.ops) != inFlight {
		t.Errorf("after the drain %d client and %d daemon frames are pooled, want %d each", len(v.cli.ops), len(v.srv.ops), inFlight)
	}
	v.churn(t, 1000)
	if len(v.cli.ops) != inFlight || len(v.srv.ops) != inFlight || len(v.fuse.ops) != inFlight {
		t.Errorf("pools grew under serial reuse: client %d, daemon %d, fuse %d; want %d each",
			len(v.cli.ops), len(v.srv.ops), len(v.fuse.ops), inFlight)
	}
}

// TestServerFailBetweenRequestAndResponse: a brick that fails while one
// operation of every verb is on the wire refuses them with responses built
// outside any frame (nothing to recycle); one that fails while they queue
// for the io-thread has already accepted them and answers from its pooled
// frames. Either way the pools survive, and after Recover the mount sees
// what the reference holds.
func TestServerFailBetweenRequestAndResponse(t *testing.T) {
	v := newFrameVolume(t)
	issue := func(round string, wantErr error, payload blob.Blob) {
		t.Helper()
		done := 0
		spare := v.prepare(t, round)
		if wantErr == nil {
			// Accepted and queued: the failure comes too late to refuse them.
			v.holdThread(t, nil)
			v.env.Defer(2*time.Millisecond, v.srv.Fail)
		} else {
			// On the wire: the requests leave a live brick and land on a
			// dead one.
			v.env.Defer(time.Microsecond, v.srv.Fail)
		}
		v.everyVerb(t, round, spare, payload, func(what string, err error) {
			if err != wantErr {
				t.Errorf("%s %s: err %v, want %v", round, what, err, wantErr)
			}
			done++
		})
		v.env.Run()
		v.srv.Recover()
		if done != 10 {
			t.Fatalf("%s: %d of 10 operations completed", round, done)
		}
		v.applied(t, round, payload, wantErr == nil)
	}
	issue("refused", ErrServerDown, blob.Synthetic(13, 20000, 2000))
	issue("accepted", nil, blob.Synthetic(17, 20000, 2000))
	v.churn(t, 200)
}

// stubFS completes every operation inline and allocates nothing: what is
// left is the cost of the layers above it. A stat lends its own structure.
type stubFS struct {
	Blocking
	st Stat
}

func newStubFS() *stubFS {
	s := &stubFS{}
	s.Blocking = NewBlocking(s)
	return s
}

func (stubFS) CreateT(_ *sim.Task, _ string, k func(FD, error))        { k(1, nil) }
func (stubFS) OpenT(_ *sim.Task, _ string, k func(FD, error))          { k(1, nil) }
func (stubFS) CloseT(_ *sim.Task, _ FD, k func(error))                 { k(nil) }
func (s *stubFS) StatT(_ *sim.Task, _ string, k func(*Stat, error))    { k(&s.st, nil) }
func (stubFS) UnlinkT(_ *sim.Task, _ string, k func(error))            { k(nil) }
func (stubFS) MkdirT(_ *sim.Task, _ string, k func(error))             { k(nil) }
func (stubFS) TruncateT(_ *sim.Task, _ string, _ int64, k func(error)) { k(nil) }
func (stubFS) ReaddirT(_ *sim.Task, _ string, k func([]string, error)) { k(nil, nil) }
func (stubFS) ReadT(_ *sim.Task, _ FD, _, _ int64, k func(blob.Blob, error)) {
	k(blob.Blob{}, nil)
}
func (stubFS) WriteT(_ *sim.Task, _ FD, _ int64, data blob.Blob, k func(int64, error)) {
	k(data.Len(), nil)
}

// TestNamespaceVerbsAllocFree: once the pools are warm, an open + close and
// an unlink through Fuse → Client → fabric → Server allocate nothing — they
// ride the same pooled frames as stat, read and write.
func TestNamespaceVerbsAllocFree(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode, cliNode := net.NewNode("server", 8), net.NewNode("client0", 8)
	NewServer(srvNode, newStubFS())
	fuse := NewFuse(cliNode, NewClient(cliNode, srvNode))
	ct := env.ContextTask("bench")
	const perRun = 32
	finished := 0
	var opened func(FD, error)
	var closed, unlinked func(error)
	opened = func(fd FD, err error) { fuse.CloseT(ct, fd, closed) }
	closed = func(err error) { fuse.UnlinkT(ct, "/stub/f", unlinked) }
	unlinked = func(err error) {
		if err != nil {
			t.Fatalf("unlink: %v", err)
		}
		finished++
	}
	run := func() {
		for i := 0; i < perRun; i++ {
			fuse.OpenT(ct, "/stub/f", opened)
		}
		env.Run()
	}
	run()
	finished = 0
	const runs = 20
	if avg := testing.AllocsPerRun(runs, run); avg != 0 {
		t.Errorf("batch of %d open+close+unlink sequences allocated %.2f times, want 0", perRun, avg)
	}
	if want := (runs + 1) * perRun; finished != want {
		t.Errorf("finished %d sequences, want %d", finished, want)
	}
}

// blockingVerbs calls each of the ten blocking methods once per entry, in
// FS order, checking what each returns.
var blockingVerbs = []struct {
	name  string
	call  func(p *sim.Proc, fs FS) bool // reports whether the results are right
	perOp float64
}{
	{"create", func(p *sim.Proc, fs FS) bool { fd, err := fs.Create(p, "/f"); return fd == 1 && err == nil }, 0},
	{"open", func(p *sim.Proc, fs FS) bool { fd, err := fs.Open(p, "/f"); return fd == 1 && err == nil }, 0},
	{"close", func(p *sim.Proc, fs FS) bool { return fs.Close(p, 1) == nil }, 0},
	{"read", func(p *sim.Proc, fs FS) bool { _, err := fs.Read(p, 1, 0, 8); return err == nil }, 0},
	{"write", func(p *sim.Proc, fs FS) bool {
		n, err := fs.Write(p, 1, 0, blob.Synthetic(1, 0, 8))
		return n == 8 && err == nil
	}, 0},
	// The caller's own copy of the structure the stack lent.
	{"stat", func(p *sim.Proc, fs FS) bool { st, err := fs.Stat(p, "/f"); return st != nil && err == nil }, 1},
	{"unlink", func(p *sim.Proc, fs FS) bool { return fs.Unlink(p, "/f") == nil }, 0},
	{"mkdir", func(p *sim.Proc, fs FS) bool { return fs.Mkdir(p, "/d") == nil }, 0},
	{"readdir", func(p *sim.Proc, fs FS) bool { _, err := fs.Readdir(p, "/d"); return err == nil }, 0},
	{"truncate", func(p *sim.Proc, fs FS) bool { return fs.Truncate(p, "/f", 0) == nil }, 0},
}

// TestBlockingVerbsAllocFree: once its pool is warm, each of the Blocking
// adapter's ten methods allocates nothing but what it gives its caller —
// Stat's copy of the lent structure. A batch runs on one process, whose own
// cost is measured on an empty batch and taken off. Two simulations on two
// goroutines then use adapters of their own at once: under -race a pool
// shared between them would show.
func TestBlockingVerbsAllocFree(t *testing.T) {
	const perRun, runs = 64, 20
	env, fs := sim.NewEnv(), newStubFS()
	batch := func(n int, call func(p *sim.Proc, fs FS) bool) func() {
		return func() {
			env.Process("blocking", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if !call(p, fs) {
						t.Errorf("a blocking call returned the wrong results")
					}
				}
			})
			env.Run()
		}
	}
	empty := testing.AllocsPerRun(runs, batch(0, nil))
	for _, v := range blockingVerbs {
		if got := (testing.AllocsPerRun(runs, batch(perRun, v.call)) - empty) / perRun; got != v.perOp {
			t.Errorf("%s: %.2f allocations per call once warm, want %.0f", v.name, got, v.perOp)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, fs := sim.NewEnv(), newStubFS()
			env.Process("blocking", func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					for _, v := range blockingVerbs {
						if !v.call(p, fs) {
							t.Errorf("%s returned the wrong results", v.name)
						}
					}
				}
			})
			env.Run()
		}()
	}
	wg.Wait()
}
