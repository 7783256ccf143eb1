package gluster

import (
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/disk"
	"imca/internal/sim"
)

// newPosix builds a posix xlator on a single modeled disk with the given
// cache size.
func newPosix(env *sim.Env, cacheBytes int64) *Posix {
	dev := disk.New(env, disk.Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	return NewPosix(env, PosixConfig{Dev: dev, CacheBytes: cacheBytes})
}

// inProc runs fn inside a simulated process and completes the simulation.
func inProc(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	env.Process("test", fn)
	env.Run()
}

func TestPosixCreateWriteReadBack(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, err := px.Create(p, "/dir/file")
		if err != nil {
			t.Fatal(err)
		}
		payload := blob.FromString("hello posix")
		n, err := px.Write(p, fd, 0, payload)
		if err != nil || n != payload.Len() {
			t.Fatalf("write = %d, %v", n, err)
		}
		got, err := px.Read(p, fd, 0, payload.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Errorf("read back %q, want %q", got.Bytes(), payload.Bytes())
		}
		if err := px.Close(p, fd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPosixOpenNonexistent(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		if _, err := px.Open(p, "/missing"); err != ErrNotExist {
			t.Errorf("err = %v, want ErrNotExist", err)
		}
	})
}

func TestPosixCreateExisting(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		px.Create(p, "/f")
		if _, err := px.Create(p, "/f"); err != ErrExist {
			t.Errorf("err = %v, want ErrExist", err)
		}
	})
}

func TestPosixReadPastEOFShortens(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		px.Write(p, fd, 0, blob.FromString("12345"))
		got, err := px.Read(p, fd, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Bytes()) != "45" {
			t.Errorf("read = %q, want 45", got.Bytes())
		}
		empty, err := px.Read(p, fd, 5, 10)
		if err != nil || empty.Len() != 0 {
			t.Errorf("read at EOF = %d bytes, %v", empty.Len(), err)
		}
	})
}

func TestPosixHolesReadAsZeros(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/sparse")
		px.Write(p, fd, 100, blob.FromString("x"))
		got, _ := px.Read(p, fd, 0, 101)
		b := got.Bytes()
		for i := 0; i < 100; i++ {
			if b[i] != 0 {
				t.Fatalf("hole byte %d = %x, want 0", i, b[i])
			}
		}
		if b[100] != 'x' {
			t.Error("written byte lost")
		}
	})
}

func TestPosixStatReflectsWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		st0, err := px.Stat(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Second)
		px.Write(p, fd, 0, blob.Synthetic(1, 0, 12345))
		st1, _ := px.Stat(p, "/f")
		if st1.Size != 12345 {
			t.Errorf("size = %d, want 12345", st1.Size)
		}
		if st1.Mtime <= st0.Mtime {
			t.Error("mtime did not advance after write")
		}
		if st1.Ino != st0.Ino {
			t.Error("ino changed")
		}
	})
}

func TestPosixColdReadHitsDiskWarmDoesNot(t *testing.T) {
	env := sim.NewEnv()
	dev := disk.New(env, disk.Params{SeekTime: 5 * time.Millisecond, TransferRate: 100e6})
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 64 << 20})
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		px.Write(p, fd, 0, blob.Synthetic(1, 0, 1<<20))
		px.Cache().Clear() // cold cache

		start := p.Now()
		px.Read(p, fd, 0, 1<<20)
		cold := p.Now().Sub(start)

		start = p.Now()
		px.Read(p, fd, 0, 1<<20)
		warm := p.Now().Sub(start)

		if cold < 5*time.Millisecond {
			t.Errorf("cold read %v did not pay a disk seek", cold)
		}
		if warm != 0 {
			t.Errorf("warm read took %v, want 0 (all pages cached)", warm)
		}
	})
}

func TestPosixCacheEvictionForcesDisk(t *testing.T) {
	env := sim.NewEnv()
	dev := disk.New(env, disk.Params{SeekTime: time.Millisecond, TransferRate: 100e6})
	// Cache holds only 1MB; the file is 4MB.
	px := NewPosix(env, PosixConfig{Dev: dev, CacheBytes: 1 << 20})
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/big")
		px.Write(p, fd, 0, blob.Synthetic(1, 0, 4<<20))
		reads0 := px.DiskReads
		px.Read(p, fd, 0, 4<<20) // cannot be fully cached
		if px.DiskReads == reads0 {
			t.Error("4MB read through a 1MB cache hit no disk")
		}
	})
}

func TestPosixUnlink(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/dir/f")
		px.Write(p, fd, 0, blob.FromString("data"))
		px.Close(p, fd)
		if err := px.Unlink(p, "/dir/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := px.Stat(p, "/dir/f"); err != ErrNotExist {
			t.Errorf("stat after unlink = %v", err)
		}
		if err := px.Unlink(p, "/dir/f"); err != ErrNotExist {
			t.Errorf("second unlink = %v", err)
		}
		names, _ := px.Readdir(p, "/dir")
		if len(names) != 0 {
			t.Errorf("dir still lists %v", names)
		}
	})
}

func TestPosixMkdirReaddir(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		px.Mkdir(p, "/a/b")
		px.Create(p, "/a/b/one")
		px.Create(p, "/a/b/two")
		names, err := px.Readdir(p, "/a/b")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 2 || names[0] != "one" || names[1] != "two" {
			t.Errorf("readdir = %v", names)
		}
		if _, err := px.Readdir(p, "/a/b/one"); err != ErrNotDir {
			t.Errorf("readdir on file = %v", err)
		}
		st, _ := px.Stat(p, "/a")
		if !st.IsDir {
			t.Error("/a not a directory")
		}
	})
}

func TestPosixTruncate(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		px.Write(p, fd, 0, blob.FromString("0123456789"))
		px.Truncate(p, "/f", 4)
		st, _ := px.Stat(p, "/f")
		if st.Size != 4 {
			t.Errorf("size = %d, want 4", st.Size)
		}
		got, _ := px.Read(p, fd, 0, 10)
		if string(got.Bytes()) != "0123" {
			t.Errorf("read = %q", got.Bytes())
		}
	})
}

func TestPosixOverlappingWrites(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		px.Write(p, fd, 0, blob.FromString("aaaaaaaaaa"))
		px.Write(p, fd, 3, blob.FromString("bbb"))
		px.Write(p, fd, 8, blob.FromString("cccc"))
		got, _ := px.Read(p, fd, 0, 12)
		if string(got.Bytes()) != "aaabbbaacccc" {
			t.Errorf("read = %q, want aaabbbaacccc", got.Bytes())
		}
		st, _ := px.Stat(p, "/f")
		if st.Size != 12 {
			t.Errorf("size = %d, want 12", st.Size)
		}
	})
}

func TestPosixSequentialWritesCoalesceExtents(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/seq")
		for i := int64(0); i < 64; i++ {
			px.Write(p, fd, i*2048, blob.Synthetic(7, i*2048, 2048))
		}
	})
	in := px.files["/seq"]
	if in.data.extentCount() != 1 {
		t.Errorf("sequential writes left %d extents, want 1", in.data.extentCount())
	}
}

func TestPosixBadFD(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		if _, err := px.Read(p, 999, 0, 10); err != ErrBadFD {
			t.Errorf("read err = %v", err)
		}
		if _, err := px.Write(p, 999, 0, blob.FromString("x")); err != ErrBadFD {
			t.Errorf("write err = %v", err)
		}
		if err := px.Close(p, 999); err != ErrBadFD {
			t.Errorf("close err = %v", err)
		}
	})
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"/a/b":   "/a/b",
		"a/b":    "/a/b",
		"/a//b/": "/a/b",
		"/":      "/",
	}
	for in, want := range cases {
		if got := clean(in); got != want {
			t.Errorf("clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtentMapRandomizedAgainstReference(t *testing.T) {
	// Compare the extent map against a simple byte-array reference under
	// random writes.
	var m extentMap
	var scratch []blob.Blob // reused across reads, as a pooled frame's is
	ref := make([]byte, 4096)
	rng := newRand(42)
	for op := 0; op < 500; op++ {
		off := int64(rng.next() % 3500)
		l := int64(rng.next()%500) + 1
		seed := rng.next()
		m.write(off, blob.Synthetic(seed, off, l))
		copy(ref[off:off+l], blob.Synthetic(seed, off, l).Bytes())
		// Random probe.
		po := int64(rng.next() % 4000)
		pl := int64(rng.next()%96) + 1
		got := m.read(&scratch, po, pl).Bytes()
		for i := range got {
			if got[i] != ref[po+int64(i)] {
				t.Fatalf("op %d: mismatch at %d+%d", op, po, i)
			}
		}
	}
}

// newRand is a tiny deterministic generator for table-free randomized tests.
type xorshift struct{ s uint64 }

func newRand(seed uint64) *xorshift { return &xorshift{s: seed} }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// TestPosixStatAndExtentWriteAllocFree pins what the storage xlator keeps
// for itself off the heap: a warm stat lends the frame's own structure, and
// a write splices the inode's extent slice in place, whether it appends to
// the last extent or overwrites inside one.
func TestPosixStatAndExtentWriteAllocFree(t *testing.T) {
	env := sim.NewEnv()
	px := newPosix(env, 64<<20)
	inProc(t, env, func(p *sim.Proc) {
		fd, _ := px.Create(p, "/f")
		px.Write(p, fd, 0, blob.Synthetic(7, 0, 1<<20))
	})
	ct := env.ContextTask("stat")
	var lent *Stat
	k := func(st *Stat, err error) {
		if err != nil || st.Size < 1<<20 || st.Path != "/f" {
			t.Fatalf("stat = %+v, %v", st, err)
		}
		lent = st
	}
	stat := func() { px.StatT(ct, "/f", k) }
	stat() // the metadata page is cached and the frame pooled from here on
	if first := lent; testing.AllocsPerRun(200, stat) != 0 || lent != first {
		t.Errorf("a warm Posix.StatT allocated, or lent a structure other than its frame's (%p, then %p)", first, lent)
	}

	m, end := &px.files["/f"].data, int64(1<<20)
	for _, tc := range []struct {
		name  string
		write func()
	}{
		{"append", func() { m.write(end, blob.Synthetic(7, end, 4096)); end += 4096 }},
		{"overwrite", func() { m.write(8192, blob.Synthetic(7, 8192, 4096)) }},
	} {
		if got := testing.AllocsPerRun(200, tc.write); got != 0 || m.extentCount() != 1 {
			t.Errorf("extentMap.write, %s: %.0f allocs and %d extents, want 0 and 1", tc.name, got, m.extentCount())
		}
	}
}
