package cluster

import (
	"errors"
	"math"
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// TestFrontDoorRefusesInvalidRanges: a mount refuses a negative offset or
// size and a range that ends past gluster.MaxFileSize (pread, pwrite and
// ftruncate's EINVAL/EFBIG) with gluster.ErrInvalid, before the operation
// costs anything: the file is as it was, and a run with the refused calls
// in it processes exactly the events, to exactly the instant, of the same
// run without them. Each used to be accepted — a write at MaxInt64 reached
// the disk model and panicked there in scheduler context.
func TestFrontDoorRefusesInvalidRanges(t *testing.T) {
	ten := blob.Synthetic(1, 0, 10)
	bad := []struct {
		name string
		call func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error
	}{
		{"write at a negative offset", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Write(p, fd, -5, ten)
			return err
		}},
		{"write ending past MaxInt64", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Write(p, fd, math.MaxInt64, ten)
			return err
		}},
		{"write ending one byte past MaxFileSize", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Write(p, fd, gluster.MaxFileSize-9, ten)
			return err
		}},
		{"read at a negative offset", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Read(p, fd, -5, 10)
			return err
		}},
		{"read of a negative size", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Read(p, fd, 0, -1)
			return err
		}},
		{"read ending past MaxInt64", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			_, err := fs.Read(p, fd, math.MaxInt64-4, 10)
			return err
		}},
		{"truncate to a negative size", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			return fs.Truncate(p, "/a", -1)
		}},
		{"truncate past MaxFileSize", func(p *sim.Proc, fs gluster.FS, fd gluster.FD) error {
			return fs.Truncate(p, "/a", gluster.MaxFileSize+1)
		}},
	}
	for _, stack := range []struct {
		name string
		opts Options
	}{
		{"IMCa", Options{MCDs: 2, MCDMemBytes: 64 << 20}},
		{"NoCache", Options{}},
	} {
		// run writes a file, optionally makes the refused calls, and reads
		// the file back; it returns what the run cost.
		run := func(refused bool) (events uint64, end sim.Time) {
			c := New(stack.opts)
			c.Env.Process("t", func(p *sim.Proc) {
				fs := c.Mounts[0].FS
				fd, err := fs.Create(p, "/a")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fs.Write(p, fd, 0, blob.Synthetic(2, 0, 4096)); err != nil {
					t.Fatal(err)
				}
				for _, b := range bad {
					if refused {
						before := c.Env.EventsProcessed
						if err := b.call(p, fs, fd); !errors.Is(err, gluster.ErrInvalid) {
							t.Errorf("%s, %s: err = %v, want gluster.ErrInvalid", stack.name, b.name, err)
						}
						if n := c.Env.EventsProcessed - before; n != 0 {
							t.Errorf("%s, %s: refused after %d events, want none", stack.name, b.name, n)
						}
					}
					if st, err := fs.Stat(p, "/a"); err != nil || st.Size != 4096 {
						t.Errorf("%s, after %s: stat = %+v, %v; want size 4096", stack.name, b.name, st, err)
					}
				}
				if got, err := fs.Read(p, fd, 0, 4096); err != nil || !got.Equal(blob.Synthetic(2, 0, 4096)) {
					t.Errorf("%s: the file reads back wrong (refused calls: %v): %v", stack.name, refused, err)
				}
			})
			end = c.Env.Run()
			return c.Env.EventsProcessed, end
		}
		events, end := run(true)
		if wantEvents, wantEnd := run(false); events != wantEvents || end != wantEnd {
			t.Errorf("%s: with the refused calls the run took %d events to %v, without them %d to %v",
				stack.name, events, end, wantEvents, wantEnd)
		}
	}
}

// TestFrontDoorAcceptsTheLargestFile is the bound from the inside: ten
// bytes ending exactly at gluster.MaxFileSize are written, and truncating
// that file to nothing costs what its one resident page costs — the page
// cache used to probe every page index of the truncated range, 2^51 of
// them here, and this test would not have returned.
func TestFrontDoorAcceptsTheLargestFile(t *testing.T) {
	for _, opts := range []Options{{MCDs: 2, MCDMemBytes: 64 << 20}, {}} {
		c := New(opts)
		c.Env.Process("t", func(p *sim.Proc) {
			fs := c.Mounts[0].FS
			fd, err := fs.Create(p, "/sparse")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write(p, fd, gluster.MaxFileSize-10, blob.Synthetic(1, 0, 10)); err != nil {
				t.Fatalf("write ending at MaxFileSize: %v", err)
			}
			if st, err := fs.Stat(p, "/sparse"); err != nil || st.Size != gluster.MaxFileSize {
				t.Errorf("stat after the write = %+v, %v; want size MaxFileSize", st, err)
			}
			if err := fs.Truncate(p, "/sparse", 0); err != nil {
				t.Fatalf("truncate to 0: %v", err)
			}
			if st, err := fs.Stat(p, "/sparse"); err != nil || st.Size != 0 {
				t.Errorf("stat after the truncate = %+v, %v; want size 0", st, err)
			}
		})
		c.Env.Run()
	}
}
