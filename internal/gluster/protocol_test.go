package gluster

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/sim"
)

// testVolume is a client-server GlusterFS assembly on an IPoIB network.
type testVolume struct {
	env    *sim.Env
	net    *fabric.Network
	posix  *Posix
	server *Server
	client FS // fuse -> protocol-client
}

func newTestVolume(t *testing.T) *testVolume {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client0", 8)

	arr := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
	px := NewPosix(env, PosixConfig{Dev: arr, CacheBytes: 6 << 30})
	srv := NewServer(srvNode, px, DefaultServerConfig)
	cli := NewFuse(cliNode, NewClient(cliNode, srvNode), DefaultFuseConfig)
	return &testVolume{env: env, net: net, posix: px, server: srv, client: cli}
}

func TestProtocolEndToEndReadWrite(t *testing.T) {
	v := newTestVolume(t)
	v.env.Process("client", func(p *sim.Proc) {
		fd, err := v.client.Create(p, "/data/file1")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.Synthetic(5, 0, 64<<10)
		if _, err := v.client.Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		got, err := v.client.Read(p, fd, 0, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Error("remote read returned wrong data")
		}
		if err := v.client.Close(p, fd); err != nil {
			t.Fatal(err)
		}
	})
	v.env.Run()
	if v.server.Ops["create"] != 1 || v.server.Ops["read"] != 1 || v.server.Ops["write"] != 1 {
		t.Errorf("server ops = %v", v.server.Ops)
	}
}

func TestProtocolErrorsCrossTheWire(t *testing.T) {
	v := newTestVolume(t)
	v.env.Process("client", func(p *sim.Proc) {
		if _, err := v.client.Open(p, "/no/such"); err != ErrNotExist {
			t.Errorf("open err = %v, want ErrNotExist", err)
		}
		v.client.Create(p, "/f")
		if _, err := v.client.Create(p, "/f"); err != ErrExist {
			t.Errorf("create err = %v, want ErrExist", err)
		}
		if err := v.client.Close(p, 424242); err != ErrBadFD {
			t.Errorf("close err = %v, want ErrBadFD", err)
		}
	})
	v.env.Run()
}

func TestProtocolStatAndReaddir(t *testing.T) {
	v := newTestVolume(t)
	v.env.Process("client", func(p *sim.Proc) {
		fd, _ := v.client.Create(p, "/d/file")
		v.client.Write(p, fd, 0, blob.Synthetic(1, 0, 1000))
		st, err := v.client.Stat(p, "/d/file")
		if err != nil || st.Size != 1000 {
			t.Errorf("stat = %+v, %v", st, err)
		}
		names, err := v.client.Readdir(p, "/d")
		if err != nil || len(names) != 1 || names[0] != "file" {
			t.Errorf("readdir = %v, %v", names, err)
		}
		if err := v.client.Unlink(p, "/d/file"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.client.Stat(p, "/d/file"); err != ErrNotExist {
			t.Errorf("stat after unlink = %v", err)
		}
	})
	v.env.Run()
}

func TestProtocolOpTakesNetworkTime(t *testing.T) {
	v := newTestVolume(t)
	var statTime sim.Duration
	v.env.Process("client", func(p *sim.Proc) {
		v.client.Create(p, "/f")
		start := p.Now()
		v.client.Stat(p, "/f")
		statTime = p.Now().Sub(start)
	})
	v.env.Run()
	if statTime < 2*fabric.IPoIB.Latency {
		t.Errorf("remote stat %v under network RTT", statTime)
	}
	if statTime > time.Millisecond {
		t.Errorf("remote stat %v implausibly slow (cached metadata)", statTime)
	}
}

func TestProtocolIOThreadsThrottleConcurrency(t *testing.T) {
	// With one IO thread, two slow (disk) reads serialize at the daemon.
	mk := func(threads int) sim.Duration {
		env := sim.NewEnv()
		net := fabric.NewNetwork(env, fabric.IPoIB)
		srvNode := net.NewNode("server", 8)
		dev := disk.New(env, disk.Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6})
		px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
		NewServer(srvNode, px, ServerConfig{IOThreads: threads, OpCPU: time.Microsecond, PerByteCPUNanos: 0.1})

		// Create two far-apart files, then drop the cache.
		setup := net.NewNode("setup", 8)
		setupCli := NewClient(setup, srvNode)
		var fds []FD
		env.Process("setup", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				fd, _ := setupCli.Create(p, fmt.Sprintf("/f%d", i))
				setupCli.Write(p, fd, 0, blob.Synthetic(uint64(i+1), 0, 1<<20))
				fds = append(fds, fd)
			}
		})
		env.Run()
		px.Cache().Clear()

		done := sim.NewBarrier(env, 2)
		var finish sim.Time
		for i := 0; i < 2; i++ {
			node := net.NewNode(fmt.Sprintf("c%d", i), 8)
			cli := NewClient(node, srvNode)
			i := i
			env.Process("reader", func(p *sim.Proc) {
				cli.Read(p, fds[i], 0, 1<<20)
				if p.Now() > finish {
					finish = p.Now()
				}
				done.Wait(p)
			})
		}
		env.Run()
		return sim.Duration(finish)
	}
	one := mk(1)
	two := mk(2)
	if one <= two {
		t.Errorf("1 io-thread (%v) not slower than 2 (%v)", one, two)
	}
}

func TestDistributeSpreadsFilesAcrossBricks(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	b1, b2 := mk(), mk()
	dht := NewDistribute(b1, b2)
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			path := fmt.Sprintf("/spread/file-%d", i)
			fd, err := dht.Create(p, path)
			if err != nil {
				t.Fatal(err)
			}
			dht.Write(p, fd, 0, blob.FromString("x"))
			dht.Close(p, fd)
		}
	})
	env.Run()
	if b1.FileCount() == 0 || b2.FileCount() == 0 {
		t.Errorf("files not spread: %d/%d", b1.FileCount(), b2.FileCount())
	}
	if b1.FileCount()+b2.FileCount() != 40 {
		t.Errorf("total files = %d, want 40", b1.FileCount()+b2.FileCount())
	}
}

func TestDistributeRoutesFDOps(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	dht := NewDistribute(mk(), mk(), mk())
	env.Process("t", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			path := fmt.Sprintf("/r/f%d", i)
			fd, _ := dht.Create(p, path)
			payload := blob.Synthetic(uint64(i+1), 0, 100)
			dht.Write(p, fd, 0, payload)
			got, err := dht.Read(p, fd, 0, 100)
			if err != nil || !got.Equal(payload) {
				t.Fatalf("file %d read mismatch: %v", i, err)
			}
			// Reopen by path and re-read.
			dht.Close(p, fd)
			fd2, err := dht.Open(p, path)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = dht.Read(p, fd2, 0, 100)
			if !got.Equal(payload) {
				t.Fatalf("file %d reopen read mismatch", i)
			}
			dht.Close(p, fd2)
		}
	})
	env.Run()
}

func TestDistributeReaddirMerges(t *testing.T) {
	env := sim.NewEnv()
	mk := func() *Posix {
		dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
		return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	}
	dht := NewDistribute(mk(), mk())
	env.Process("t", func(p *sim.Proc) {
		dht.Mkdir(p, "/m")
		for i := 0; i < 10; i++ {
			fd, _ := dht.Create(p, fmt.Sprintf("/m/f%d", i))
			dht.Close(p, fd)
		}
		names, err := dht.Readdir(p, "/m")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 10 {
			t.Errorf("readdir merged %d names, want 10: %v", len(names), names)
		}
	})
	env.Run()
}

func TestFuseAddsClientCPUCost(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	cliNode := net.NewNode("client", 8)
	dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	NewServer(srvNode, px, DefaultServerConfig)
	raw := NewClient(cliNode, srvNode)
	fused := NewFuse(cliNode, raw, DefaultFuseConfig)

	var rawTime, fusedTime sim.Duration
	env.Process("t", func(p *sim.Proc) {
		fd, _ := raw.Create(p, "/f")
		raw.Write(p, fd, 0, blob.Synthetic(1, 0, 4096))
		start := p.Now()
		raw.Stat(p, "/f")
		rawTime = p.Now().Sub(start)
		start = p.Now()
		fused.Stat(p, "/f")
		fusedTime = p.Now().Sub(start)
	})
	env.Run()
	if fusedTime <= rawTime {
		t.Errorf("fuse stat (%v) not slower than raw (%v)", fusedTime, rawTime)
	}
}

// TestWireSizes pins every verb's request and response size to the literal
// byte count of the protocol's per-op header plus its variable parts, so a
// drifted header fails here and not as a moved virtual-time table.
func TestWireSizes(t *testing.T) {
	const path = "/dir/file" // 9 bytes
	data := blob.Synthetic(1, 0, 1000)
	st := Stat{Path: path}
	names := []string{"a", "bcd"} // Σ(len + 8) = 20
	for _, tc := range []struct {
		req      request
		wantReq  int64
		resp     response
		wantResp int64
	}{
		{request{verb: verbCreate, path: path}, 32 + 9, response{verb: verbCreate, fd: 3, code: "EEXIST"}, 16 + 6},
		{request{verb: verbOpen, path: path}, 32 + 9, response{verb: verbOpen, fd: 3}, 16},
		{request{verb: verbClose, fd: 3}, 16, response{verb: verbClose, code: "EBADF"}, 8 + 5},
		{request{verb: verbRead, fd: 3, off: 4096, size: 1000}, 32, response{verb: verbRead, data: data, code: "EBADF"}, 16 + 1000 + 5},
		{request{verb: verbWrite, fd: 3, off: 4096, data: data}, 32 + 1000, response{verb: verbWrite, n: 1000, code: "EBADF"}, 16 + 5},
		{request{verb: verbStat, path: path}, 16 + 9, response{verb: verbStat, st: st}, 16 + 96 + 9},
		{request{verb: verbStat, path: path}, 16 + 9, response{verb: verbStat, code: "ENOENT"}, 16 + 6},
		{request{verb: verbUnlink, path: path}, 32 + 9, response{verb: verbUnlink, code: "ENOENT"}, 8 + 6},
		{request{verb: verbMkdir, path: path}, 32 + 9, response{verb: verbMkdir}, 8},
		{request{verb: verbTruncate, path: path, size: 1 << 20}, 32 + 9, response{verb: verbTruncate}, 8},
		{request{verb: verbReaddir, path: path}, 16 + 9, response{verb: verbReaddir, names: names, code: "ENOTDIR"}, 16 + 7 + 20},
	} {
		if got := tc.req.WireSize(); got != tc.wantReq {
			t.Errorf("%v request: %d bytes, want %d", tc.req.verb, got, tc.wantReq)
		}
		if got := tc.resp.WireSize(); got != tc.wantResp {
			t.Errorf("%v response: %d bytes, want %d", tc.resp.verb, got, tc.wantResp)
		}
	}
}
