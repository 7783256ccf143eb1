package gluster

import (
	"errors"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// Lifetimes of the per-layer op frames (fuseOp, clientOp, serverOp,
// posixOp), driven with the fabric's frame-poison mode on so a pooled frame
// touched after its release panics instead of quietly corrupting a later
// call.

// frameVolume is fuse → protocol client → daemon → posix, with one io-thread
// and a slow disk so a cold read holds the daemon for milliseconds.
type frameVolume struct {
	env  *sim.Env
	px   *Posix
	srv  *Server
	cli  *Client
	fuse *Fuse
	fd   FD
	ref  []byte // what the file must hold
}

const framePath = "/frames/f"

func newFrameVolume(t *testing.T) *frameVolume {
	t.Helper()
	fabric.SetFramePoison(true)
	t.Cleanup(func() { fabric.SetFramePoison(false) })
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode, cliNode := net.NewNode("server", 8), net.NewNode("client0", 8)
	dev := disk.New(env, disk.Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
	v := &frameVolume{env: env, ref: blob.Synthetic(7, 0, 64<<10).Bytes()}
	v.px = NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30, ReadaheadBytes: -1})
	v.srv = NewServer(srvNode, v.px, ServerConfig{IOThreads: 1})
	v.cli = NewClient(cliNode, srvNode)
	v.fuse = NewFuse(cliNode, v.cli, DefaultFuseConfig)
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

// holdThread issues a cold 64 KB read: the only io-thread is busy for a
// seek and more.
func (v *frameVolume) holdThread(t *testing.T) {
	v.px.Cache().Clear()
	v.fuse.ReadT(v.env.ContextTask("blocker"), v.fd, 0, 64<<10, func(got blob.Blob, err error) {
		if err != nil || !got.Equal(blob.FromBytes(v.ref)) {
			t.Errorf("blocking read: %d bytes, %v", got.Len(), err)
		}
	})
}

// churn runs n further stats, reads and writes through the mount against
// the reference, reusing whatever the pools hold.
func (v *frameVolume) churn(t *testing.T, n int) {
	t.Helper()
	rng := newRand(99)
	v.env.Process("churn", func(p *sim.Proc) {
		for op := 0; op < n; op++ {
			off := int64(rng.next() % 60000)
			size := int64(rng.next()%4000) + 1
			switch rng.next() % 3 {
			case 0:
				payload := blob.Synthetic(rng.next()|1, off, size)
				if _, err := v.fuse.Write(p, v.fd, off, payload); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				copy(v.ref[off:], payload.Bytes())
			case 1:
				got, err := v.fuse.Read(p, v.fd, off, size)
				if err != nil || !got.Equal(blob.FromBytes(v.ref[off:off+size])) {
					t.Fatalf("op %d read [%d,%d): %d bytes, %v", op, off, off+size, got.Len(), err)
				}
			default:
				st, err := v.fuse.Stat(p, framePath)
				if err != nil || st.Size != int64(len(v.ref)) {
					t.Fatalf("op %d stat: %+v, %v", op, st, err)
				}
			}
		}
	})
	v.env.Run()
}

// TestAbandonedRPCsThenReuse: a read and a write whose operation deadline
// expires while their requests queue behind the brick's io-thread are
// abandoned by the caller but still served. The client frames own those
// requests, so they must stay out of the pool until the fabric recycles the
// requests — not return when the (error) continuation runs — and a thousand
// further operations over the same pools must read what the reference holds,
// the abandoned write included.
func TestAbandonedRPCsThenReuse(t *testing.T) {
	v := newFrameVolume(t)
	v.holdThread(t)
	col := optrace.NewCollector()
	payload := blob.Synthetic(11, 8192, 3000)
	abandoned := 0
	expired := func(what string, a *sim.Task, err error) {
		col.End(a)
		if !errors.Is(err, fabric.ErrDeadline) {
			t.Errorf("%s queued behind the io-thread: err = %v, want the deadline", what, err)
		}
		if len(v.cli.ops) != 0 {
			t.Errorf("%s: %d client frames pooled while every request is still at the daemon", what, len(v.cli.ops))
		}
		abandoned++
	}
	rd, wr := v.env.ContextTask("reader"), v.env.ContextTask("writer")
	col.Begin(rd, "read").SetDeadline(rd.Now().Add(time.Millisecond))
	v.fuse.ReadT(rd, v.fd, 100, 4096, func(_ blob.Blob, err error) { expired("read", rd, err) })
	col.Begin(wr, "write").SetDeadline(wr.Now().Add(time.Millisecond))
	v.fuse.WriteT(wr, v.fd, 8192, payload, func(_ int64, err error) { expired("write", wr, err) })
	v.env.Run()
	copy(v.ref[8192:], payload.Bytes()) // abandoned, but the daemon applied it

	if abandoned != 2 || v.cli.rpcErrors != 2 {
		t.Fatalf("abandoned %d operations, %d rpc errors; want 2 and 2", abandoned, v.cli.rpcErrors)
	}
	if len(v.cli.ops) != 3 || len(v.srv.ops) != 3 {
		t.Errorf("after the drain %d client and %d daemon frames are pooled, want 3 and 3", len(v.cli.ops), len(v.srv.ops))
	}
	v.churn(t, 1000)
	if len(v.cli.ops) != 3 || len(v.srv.ops) != 3 || len(v.fuse.ops) != 3 {
		t.Errorf("pools grew under serial reuse: client %d, daemon %d, fuse %d; want 3 each",
			len(v.cli.ops), len(v.srv.ops), len(v.fuse.ops))
	}
}

// TestServerFailBetweenRequestAndResponse: a brick that fails while a read
// and a write are on the wire refuses them with responses built outside any
// frame (nothing to recycle); one that fails while they queue for the
// io-thread has already accepted them and answers from its pooled frames.
// Either way the pools survive, and after Recover the mount reads what the
// reference holds.
func TestServerFailBetweenRequestAndResponse(t *testing.T) {
	v := newFrameVolume(t)
	issue := func(wantErr error, payload blob.Blob) {
		t.Helper()
		done := 0
		v.fuse.ReadT(v.env.ContextTask("reader"), v.fd, 100, 4096, func(got blob.Blob, err error) {
			if err != wantErr || (err == nil && !got.Equal(blob.FromBytes(v.ref[100:100+4096]))) {
				t.Errorf("read: %d bytes, err %v, want err %v", got.Len(), err, wantErr)
			}
			done++
		})
		v.fuse.WriteT(v.env.ContextTask("writer"), v.fd, 20000, payload, func(n int64, err error) {
			if err != wantErr || (err == nil && n != payload.Len()) {
				t.Errorf("write: n %d, err %v, want err %v", n, err, wantErr)
			}
			done++
		})
		v.env.Run()
		v.srv.Recover()
		if done != 2 {
			t.Fatalf("%d of 2 operations completed", done)
		}
	}

	// On the wire: the request leaves a live brick and lands on a dead one.
	v.env.Defer(time.Microsecond, v.srv.Fail)
	issue(ErrServerDown, blob.Synthetic(13, 20000, 2000))

	// Accepted and queued: the failure comes too late to refuse them.
	v.holdThread(t)
	v.env.Defer(2*time.Millisecond, v.srv.Fail)
	accepted := blob.Synthetic(17, 20000, 2000)
	issue(nil, accepted)
	copy(v.ref[20000:], accepted.Bytes())

	v.churn(t, 200)
}
