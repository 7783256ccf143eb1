package fault

import (
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// stub is a scripted child FS: every call takes d of virtual time, reads
// and stats answer what the test queued for them, and everything else
// succeeds.
type stub struct {
	d     sim.Duration
	reads []string // successive Read results
	sizes []int64  // successive Stat sizes; -1 answers ErrNotExist
	fds   gluster.FD
}

var _ gluster.FS = (*stub)(nil)

func (s *stub) Create(p *sim.Proc, path string) (gluster.FD, error) { return s.open(p) }
func (s *stub) Open(p *sim.Proc, path string) (gluster.FD, error)   { return s.open(p) }

func (s *stub) open(p *sim.Proc) (gluster.FD, error) {
	p.Sleep(s.d)
	s.fds++
	return s.fds, nil
}

func (s *stub) Close(p *sim.Proc, fd gluster.FD) error { p.Sleep(s.d); return nil }

func (s *stub) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	p.Sleep(s.d)
	r := s.reads[0]
	s.reads = s.reads[1:]
	return blob.FromString(r), nil
}

func (s *stub) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	p.Sleep(s.d)
	return data.Len(), nil
}

func (s *stub) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	p.Sleep(s.d)
	n := s.sizes[0]
	s.sizes = s.sizes[1:]
	if n < 0 {
		return nil, gluster.ErrNotExist
	}
	return &gluster.Stat{Path: path, Size: n}, nil
}

func (s *stub) Unlink(p *sim.Proc, path string) error { p.Sleep(s.d); return nil }
func (s *stub) Truncate(p *sim.Proc, path string, size int64) error {
	p.Sleep(s.d)
	return nil
}
func (s *stub) Mkdir(p *sim.Proc, path string) error               { return nil }
func (s *stub) Readdir(p *sim.Proc, path string) ([]string, error) { return nil, nil }

// ms is a virtual instant or span in milliseconds.
func ms(n float64) sim.Duration { return sim.Duration(n * float64(time.Millisecond)) }

// at runs fn in a process of its own from virtual time t.
func at(env *sim.Env, t sim.Duration, fn func(p *sim.Proc)) {
	env.Process("step", func(p *sim.Proc) {
		p.Sleep(t)
		fn(p)
	})
}

// verdicts fails unless the oracle reported exactly one violation per
// entry of want, each containing it, in order.
func verdicts(t *testing.T, o *Oracle, want ...string) {
	t.Helper()
	got := o.Violations()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.Contains(got[i], want[i])
	}
	if !ok {
		t.Errorf("violations:\n%s\nwant one each containing %q", strings.Join(got, "\n"), want)
	}
}

// written sets up two 1 ms mounts over a file mount 0 created over [0,1]
// and wrote "AAAA" into over [1,2], and returns mount 0's descriptor.
func written(env *sim.Env, a, b *stub) (*Oracle, *gluster.FD) {
	o := NewOracle(a, b)
	fd := new(gluster.FD)
	at(env, 0, func(p *sim.Proc) {
		*fd, _ = o.Mount(0).Create(p, "/f")
		o.Mount(0).Write(p, *fd, 0, blob.FromString("AAAA"))
	})
	return o, fd
}

// A read that starts after another mount's write completed must see it:
// the bytes from before the write are stale, and so is a file that ends
// before the write does.
func TestOracleReadAfterAnotherMountsWrite(t *testing.T) {
	for _, tc := range []struct {
		got  string
		want []string
	}{
		{"AAAA", nil},
		{"AAAB", []string{`stale read "/f" [0,+8) on mount 1: byte 3 is 0x42`}},
		{"", []string{"0 bytes, but no legal mutation ends the file at 0"}},
	} {
		env := sim.NewEnv()
		o, _ := written(env, &stub{d: ms(1)}, &stub{d: ms(1), reads: []string{tc.got}})
		at(env, ms(3), func(p *sim.Proc) {
			fd, _ := o.Mount(1).Open(p, "/f")
			o.Mount(1).Read(p, fd, 0, 8)
		})
		env.Run()
		verdicts(t, o, tc.want...)
	}
}

// A read that overlaps a write may return old or new bytes, byte by byte;
// a byte neither leaves is stale.
func TestOracleReadOverlappingWrite(t *testing.T) {
	for _, tc := range []struct {
		got  string
		want []string
	}{
		{"AAAA", nil},
		{"BBBB", nil},
		{"ABBA", nil},
		{"ABCA", []string{"byte 2 is 0x43; legal: [0x41 0x42]"}},
	} {
		env := sim.NewEnv()
		o, fd := written(env, &stub{d: ms(1)}, &stub{d: ms(1), reads: []string{tc.got}})
		at(env, ms(3), func(p *sim.Proc) { o.Mount(0).Write(p, *fd, 0, blob.FromString("BBBB")) }) // [3,4]
		at(env, ms(2), func(p *sim.Proc) {
			rfd, _ := o.Mount(1).Open(p, "/f") // [2,3]
			p.Sleep(ms(0.5))
			o.Mount(1).Read(p, rfd, 0, 4) // [3.5,4.5]
		})
		env.Run()
		verdicts(t, o, tc.want...)
	}
}

// After two writes from different mounts overlapped each other, neither
// superseded the other: either value is legal, a third is stale.
func TestOracleOverlappingWrites(t *testing.T) {
	for _, tc := range []struct {
		got  string
		want []string
	}{
		{"BBBB", nil},
		{"CCCC", nil},
		{"BCCB", nil},
		{"AAAA", []string{"byte 0 is 0x41"}},
	} {
		env := sim.NewEnv()
		a, b := &stub{d: ms(1), reads: []string{tc.got}}, &stub{d: ms(3)}
		o, fd := written(env, a, b)
		at(env, ms(3), func(p *sim.Proc) { o.Mount(0).Write(p, *fd, 0, blob.FromString("BBBB")) }) // [3,4]
		at(env, 0, func(p *sim.Proc) {
			wfd, _ := o.Mount(1).Open(p, "/f")                   // [0,3]
			o.Mount(1).Write(p, wfd, 0, blob.FromString("CCCC")) // [3,6]
		})
		at(env, ms(7), func(p *sim.Proc) { o.Mount(0).Read(p, *fd, 0, 4) }) // [7,8]
		env.Run()
		verdicts(t, o, tc.want...)
	}
}

// A stat's size and its ENOENT are judged by the same rule: under an
// overlapping truncate either end is legal (byte by byte, so is any end
// between them) and after it only the new one; under an overlapping unlink
// either answer is legal and after it only ENOENT.
func TestOracleStatUnderTruncateAndUnlink(t *testing.T) {
	for _, tc := range []struct {
		unlink     bool
		during     int64 // what the stat overlapping the mutation answers
		after      int64 // what the stat after it answers
		violations []string
	}{
		{false, 4, 2, nil},
		{false, 2, 2, nil},
		{false, 3, 2, nil},
		{false, 5, 2, []string{`stale stat "/f" on mount 0: size 5`}},
		{false, 2, 4, []string{`stale stat "/f" on mount 0: size 4`}},
		{true, 4, -1, nil},
		{true, -1, -1, nil},
		{true, -1, 4, []string{`stale stat "/f" on mount 0: size 4`}},
	} {
		env := sim.NewEnv()
		o, _ := written(env, &stub{d: ms(1), sizes: []int64{tc.during, tc.after}}, &stub{d: ms(2)})
		at(env, ms(3), func(p *sim.Proc) { // [3,5]
			if tc.unlink {
				o.Mount(1).Unlink(p, "/f")
			} else {
				o.Mount(1).Truncate(p, "/f", 2)
			}
		})
		at(env, ms(4), func(p *sim.Proc) {
			o.Mount(0).Stat(p, "/f") // [4,5]
			p.Sleep(ms(1))
			o.Mount(0).Stat(p, "/f") // [6,7]
		})
		env.Run()
		verdicts(t, o, tc.violations...)
	}
}

// An unlink on mount 0 orphans mount 1's descriptors: what mount 1 reads
// through one is the unlinked file's and is not judged, and what it writes
// through one is not the path's — a re-created file is empty.
func TestOracleUnlinkOrphansOtherMountsDescriptors(t *testing.T) {
	env := sim.NewEnv()
	a, b := &stub{d: ms(1), sizes: []int64{0}}, &stub{d: ms(1), reads: []string{"AAAA"}}
	o := NewOracle(a, b)
	at(env, 0, func(p *sim.Proc) {
		fd, _ := o.Mount(1).Create(p, "/f")                 // [0,1]
		o.Mount(1).Write(p, fd, 0, blob.FromString("AAAA")) // [1,2]
		p.Sleep(ms(2))
		o.Mount(1).Read(p, fd, 0, 4)                        // [4,5]
		o.Mount(1).Write(p, fd, 4, blob.FromString("BBBB")) // [5,6]
	})
	at(env, ms(3), func(p *sim.Proc) {
		o.Mount(0).Unlink(p, "/f") // [3,4]
		p.Sleep(ms(4))
		o.Mount(0).Create(p, "/f") // [8,9]
		o.Mount(0).Stat(p, "/f")   // [9,10]: the orphan's write is not there
	})
	env.Run()
	verdicts(t, o)
	if o.readChecks != 0 || o.mutations != 4 {
		t.Errorf("judged %d reads and recorded %d mutations, want 0 and 4 (create, write, unlink, create)", o.readChecks, o.mutations)
	}
}
