package nfssim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/sim"
)

func deploy(t *testing.T, tr fabric.Transport, memBytes int64, clients int) (*sim.Env, *Server, []*Client) {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, tr)
	srv := NewServer(env, net.NewNode("nfs-server", 8), DefaultConfig(memBytes))
	cls := make([]*Client, clients)
	for i := range cls {
		cls[i] = NewClient(net.NewNode(fmt.Sprintf("nc%d", i), 8), srv)
	}
	return env, srv, cls
}

func TestNFSRoundTrip(t *testing.T) {
	env, _, cls := deploy(t, fabric.IPoIB, 1<<30, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		fd, err := c.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.Synthetic(1, 0, 128<<10)
		if _, err := c.Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read(p, fd, 0, 128<<10)
		if err != nil || !got.Equal(payload) {
			t.Errorf("read-back mismatch: %v", err)
		}
		st, err := c.Stat(p, "/f")
		if err != nil || st.Size != 128<<10 {
			t.Errorf("stat = %+v, %v", st, err)
		}
	})
	env.Run()
}

func TestNFSErrors(t *testing.T) {
	env, _, cls := deploy(t, fabric.GigE, 1<<30, 1)
	env.Process("t", func(p *sim.Proc) {
		c := cls[0]
		if _, err := c.Open(p, "/missing"); err == nil {
			t.Error("open of missing file succeeded")
		}
		if err := c.Unlink(p, "/missing"); err == nil {
			t.Error("unlink of missing file succeeded")
		}
		// The front door's range check (gluster.CheckRange), before any RPC.
		fd, _ := c.Create(p, "/f")
		at := p.Now()
		if _, err := c.Write(p, fd, -5, blob.Synthetic(1, 0, 10)); !errors.Is(err, gluster.ErrInvalid) {
			t.Errorf("write at -5: err = %v, want gluster.ErrInvalid", err)
		}
		if _, err := c.Read(p, fd, math.MaxInt64, 10); !errors.Is(err, gluster.ErrInvalid) {
			t.Errorf("read ending past MaxInt64: err = %v, want gluster.ErrInvalid", err)
		}
		if p.Now() != at {
			t.Errorf("refused calls took %v of virtual time", p.Now().Sub(at))
		}
	})
	env.Run()
}

// readThroughput measures aggregate client read bandwidth (bytes/sec of
// virtual time) for nClients streaming their own files.
func readThroughput(t *testing.T, tr fabric.Transport, memBytes, fileSize int64, nClients int) float64 {
	t.Helper()
	env, srv, cls := deploy(t, tr, memBytes, nClients)
	const record = 1 << 20
	// Populate files.
	env.Process("setup", func(p *sim.Proc) {
		for i, c := range cls {
			fd, _ := c.Create(p, fmt.Sprintf("/f%d", i))
			for off := int64(0); off < fileSize; off += record {
				c.Write(p, fd, off, blob.Synthetic(uint64(i+1), off, record))
			}
			c.Close(p, fd)
		}
	})
	env.Run()
	_ = srv

	start := env.Now()
	var last sim.Time
	for i, c := range cls {
		i, c := i, c
		env.Process("reader", func(p *sim.Proc) {
			fd, _ := c.Open(p, fmt.Sprintf("/f%d", i))
			for off := int64(0); off < fileSize; off += record {
				c.Read(p, fd, off, record)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	elapsed := last.Sub(start).Seconds()
	return float64(fileSize*int64(nClients)) / elapsed
}

func TestNFSTransportBandwidthOrdering(t *testing.T) {
	// Warm server cache: RDMA > IPoIB > GigE (Fig. 1 left side).
	mem := int64(2 << 30)
	size := int64(64 << 20) // fits in memory
	rdma := readThroughput(t, fabric.RDMA, mem, size, 2)
	ipoib := readThroughput(t, fabric.IPoIB, mem, size, 2)
	gige := readThroughput(t, fabric.GigE, mem, size, 2)
	if !(rdma > ipoib && ipoib > gige) {
		t.Errorf("ordering wrong: RDMA=%.0f IPoIB=%.0f GigE=%.0f MB/s", rdma/1e6, ipoib/1e6, gige/1e6)
	}
	if gige > 125e6 {
		t.Errorf("GigE throughput %.0f MB/s exceeds wire speed", gige/1e6)
	}
}

func TestNFSBandwidthCollapsesBeyondServerMemory(t *testing.T) {
	// The Fig. 1 cliff: working set > server RAM forces disk reads and
	// bandwidth drops well below the in-memory case.
	mem := int64(64 << 20)
	inMem := readThroughput(t, fabric.RDMA, mem, 16<<20, 2)  // 32MB < 64MB
	spill := readThroughput(t, fabric.RDMA, mem, 128<<20, 2) // 256MB > 64MB
	if spill > inMem/2 {
		t.Errorf("no memory cliff: in-mem %.0f MB/s vs spill %.0f MB/s", inMem/1e6, spill/1e6)
	}
}

func TestNFSMoreMemoryDelaysCliff(t *testing.T) {
	// 4GB-vs-8GB effect at reduced scale: with the same working set, the
	// larger-memory server sustains higher bandwidth.
	small := readThroughput(t, fabric.RDMA, 64<<20, 96<<20, 2)
	large := readThroughput(t, fabric.RDMA, 256<<20, 96<<20, 2)
	if large <= small {
		t.Errorf("larger server memory (%.0f MB/s) not faster than smaller (%.0f MB/s)", large/1e6, small/1e6)
	}
}
