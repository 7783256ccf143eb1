package core

import (
	"fmt"
	"testing"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// refFile is a plain byte-slice model of one file.
type refFile struct {
	data []byte
}

func (f *refFile) write(off int64, b []byte) {
	if need := off + int64(len(b)); need > int64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], b)
}

func (f *refFile) read(off, size int64) []byte {
	if off >= int64(len(f.data)) {
		return nil
	}
	end := off + size
	if end > int64(len(f.data)) {
		end = int64(len(f.data))
	}
	return f.data[off:end]
}

// TestIMCaRandomOpsMatchReference drives the full IMCa stack (client
// translator, server translator, MCD bank, simulated server) with a
// random mix of writes, reads, stats, opens, and MCD flushes, comparing
// every result against the in-memory reference. This is the system-level
// linearity check: caching must never change what a single client
// observes.
func TestIMCaRandomOpsMatchReference(t *testing.T) {
	for _, bs := range []int64{256, 2048, 8192} {
		bs := bs
		t.Run(fmt.Sprintf("block%d", bs), func(t *testing.T) {
			r := newRig(t, 2, Config{BlockSize: bs})
			rng := newRand(uint64(bs) + 1)
			ref := &refFile{}
			const fileMax = 64 << 10

			r.run(t, func(p *sim.Proc) {
				fd, err := r.client.Create(p, "/fuzz/f")
				if err != nil {
					t.Fatal(err)
				}
				for op := 0; op < 400; op++ {
					switch rng.next() % 10 {
					case 0, 1, 2: // write
						off := int64(rng.next() % fileMax)
						size := int64(rng.next()%5000) + 1
						payload := blob.Synthetic(rng.next()|1, int64(op)*7, size)
						if _, err := r.client.Write(p, fd, off, payload); err != nil {
							t.Fatalf("op %d write: %v", op, err)
						}
						ref.write(off, payload.Bytes())
					case 3, 4, 5, 6, 7: // read
						off := int64(rng.next() % (fileMax + 4096))
						size := int64(rng.next()%9000) + 1
						got, err := r.client.Read(p, fd, off, size)
						if err != nil {
							t.Fatalf("op %d read: %v", op, err)
						}
						want := ref.read(off, size)
						if got.Len() != int64(len(want)) {
							t.Fatalf("op %d read [%d,%d): got %d bytes, want %d",
								op, off, off+size, got.Len(), len(want))
						}
						gb := got.Bytes()
						for i := range want {
							if gb[i] != want[i] {
								t.Fatalf("op %d read [%d,%d): byte %d differs", op, off, off+size, i)
							}
						}
					case 8: // stat
						st, err := r.client.Stat(p, "/fuzz/f")
						if err != nil {
							t.Fatalf("op %d stat: %v", op, err)
						}
						if st.Size != int64(len(ref.data)) {
							t.Fatalf("op %d stat size = %d, want %d", op, st.Size, len(ref.data))
						}
					case 9: // random cache disturbance
						switch rng.next() % 3 {
						case 0:
							r.mcds[int(rng.next()%uint64(len(r.mcds)))].Store().FlushAll()
						case 1:
							// Reopen: purges data blocks server-side.
							nfd, err := r.client.Open(p, "/fuzz/f")
							if err != nil {
								t.Fatalf("op %d reopen: %v", op, err)
							}
							r.client.Close(p, fd)
							fd = nfd
						case 2:
							r.posix.Cache().Clear() // cold server page cache
						}
					}
				}
			})
		})
	}
}

// TestIMCaMultiClientRandomSharedReads has one writer and several readers
// taking turns on a shared file; all readers must observe the writer's
// latest data through the cache bank.
func TestIMCaMultiClientRandomSharedReads(t *testing.T) {
	env, mounts, mcds := newMultiRig(t, 4, 2, Config{BlockSize: 2048})
	_ = mcds
	rng := newRand(99)
	ref := &refFile{}
	env.Process("driver", func(p *sim.Proc) {
		w := mounts[0]
		fd, err := w.Create(p, "/m/shared")
		if err != nil {
			t.Fatal(err)
		}
		rfds := make([]gluster.FD, len(mounts))
		rfds[0] = fd
		for i := 1; i < len(mounts); i++ {
			if rfds[i], err = mounts[i].Open(p, "/m/shared"); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 30; round++ {
			off := int64(rng.next() % 30000)
			size := int64(rng.next()%4000) + 1
			payload := blob.Synthetic(rng.next()|1, int64(round), size)
			if _, err := w.Write(p, fd, off, payload); err != nil {
				t.Fatal(err)
			}
			ref.write(off, payload.Bytes())

			reader := 1 + int(rng.next()%uint64(len(mounts)-1))
			roff := int64(rng.next() % 32000)
			rsize := int64(rng.next()%6000) + 1
			got, err := mounts[reader].Read(p, rfds[reader], roff, rsize)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.read(roff, rsize)
			if got.Len() != int64(len(want)) || !got.Equal(blob.FromBytes(want)) {
				t.Fatalf("round %d: reader %d saw stale/wrong data at [%d,%d)", round, reader, roff, roff+rsize)
			}
		}
	})
	env.Run()
}

// newMultiRig builds an IMCa deployment with several clients sharing one
// MCD bank (helper for multi-client core tests).
func newMultiRig(t *testing.T, clients, nMCD int, cfg Config) (*sim.Env, []gluster.FS, []*memcache.SimServer) {
	t.Helper()
	env, mounts, mcds, _ := newMultiRigSM(t, clients, nMCD, cfg)
	return env, mounts, mcds
}

// newMultiRigSM is newMultiRig for tests that also inspect the server
// translator.
func newMultiRigSM(t *testing.T, clients, nMCD int, cfg Config) (*sim.Env, []gluster.FS, []*memcache.SimServer, *SMCache) {
	t.Helper()
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srvNode := net.NewNode("server", 8)
	mcds := make([]*memcache.SimServer, nMCD)
	for i := range mcds {
		mcds[i] = memcache.NewSimServer(net.NewNode(fmt.Sprintf("mcd%d", i), 8), 1<<30)
	}
	dev := disk.NewArray(env, 8, 64<<10, disk.HighPoint2008)
	px := gluster.NewPosix(env, gluster.PosixConfig{Dev: dev, CacheBytes: 1 << 30})
	sm := NewSMCache(env, px, memcache.NewSimClient(srvNode, mcds), cfg)
	gluster.NewServer(srvNode, sm)
	mounts := make([]gluster.FS, clients)
	for i := range mounts {
		node := net.NewNode(fmt.Sprintf("client%d", i), 8)
		cm := NewCMCache(gluster.NewClient(node, srvNode), memcache.NewSimClient(node, mcds), cfg)
		mounts[i] = gluster.NewFuse(node, cm)
	}
	return env, mounts, mcds, sm
}

// xorshift RNG for deterministic fuzzing without math/rand's global state.
type xorshift struct{ s uint64 }

func newRand(seed uint64) *xorshift { return &xorshift{s: seed*2862933555777941757 + 3037000493} }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
