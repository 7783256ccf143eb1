package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// residentBlocks lists the block offsets of path's data keys held by any
// daemon of the bank.
func residentBlocks(t *testing.T, mcds []*memcache.SimServer, path string) []int64 {
	t.Helper()
	var out []int64
	for _, m := range mcds {
		for _, key := range m.Store().Keys() {
			rest, ok := strings.CutPrefix(key, path+":")
			if !ok || rest == "stat" {
				continue
			}
			off, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("unparseable data key %q", key)
			}
			out = append(out, off)
		}
	}
	return out
}

// checkResidentRecorded asserts the resident-set invariant: once the
// simulation has drained, every data key of path resident in any MCD is
// recorded for path. It returns how many are resident.
func checkResidentRecorded(t *testing.T, sm *SMCache, mcds []*memcache.SimServer, path string) int {
	t.Helper()
	resident := residentBlocks(t, mcds, path)
	untracked := 0
	for _, off := range resident {
		if !sm.Recorded(path, off) {
			untracked++
		}
	}
	if untracked > 0 {
		t.Errorf("%d of %s's %d resident blocks are not recorded: no later purge can delete them",
			untracked, path, len(resident))
	}
	return len(resident)
}

// TestPurgeDuringPushKeepsTracking: client A's 128-block push is under way
// when client B opens the same path, whose purge deletes what has landed so
// far and finishes first. The blocks A lands afterwards must stay recorded
// — the parent threw the path's whole set away at the end of the purge, so
// they stayed in the bank for good and outlived even the unlink, ready to
// be served to whoever re-creates the path.
func TestPurgeDuringPushKeepsTracking(t *testing.T) {
	const bs, size, path = 2048, 256 << 10, "/p/shared"
	for _, into := range []time.Duration{100 * time.Microsecond, 300 * time.Microsecond, time.Millisecond} {
		t.Run(into.String(), func(t *testing.T) {
			env, mounts, mcds, sm := newMultiRigSM(t, 2, 2, Config{BlockSize: bs})
			env.Process("A", func(p *sim.Proc) {
				fd, err := mounts[0].Create(p, path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mounts[0].Write(p, fd, 0, blob.Synthetic(7, 0, size)); err != nil {
					t.Fatal(err)
				}
			})
			var purged uint64
			env.Process("B", func(p *sim.Proc) {
				for sm.Stats.BlockPushes == 0 {
					p.Sleep(sim.Duration(10 * time.Microsecond))
				}
				p.Sleep(sim.Duration(into))
				before := sm.Stats.Purges
				if _, err := mounts[1].Open(p, path); err != nil {
					t.Fatal(err)
				}
				purged = sm.Stats.Purges - before
				if sm.Stats.BlockPushes == size/bs {
					t.Fatal("the push ended before the open did; the overlap was not exercised")
				}
			})
			env.Run()
			if purged == 0 {
				t.Fatal("the open purged nothing; the overlap was not exercised")
			}
			if n := checkResidentRecorded(t, sm, mcds, path); n == 0 {
				t.Fatal("no block landed after the purge; the overlap was not exercised")
			}
			env.Process("unlink", func(p *sim.Proc) {
				if err := mounts[0].Unlink(p, path); err != nil {
					t.Fatal(err)
				}
			})
			env.Run()
			if left := residentBlocks(t, mcds, path); len(left) != 0 {
				t.Errorf("%d data blocks of %s survive its unlink", len(left), path)
			}
		})
	}
}

// TestOverlappingPushPurgeMatchesReference is the two-client same-file
// overlap as a random mix: a writer/reader and an opener/closer run
// concurrently on one path — so purges land inside pushes — and the file is
// unlinked and re-created with different contents along the way. Every read
// is held against the reference file of the current incarnation, and the
// resident-set invariant against the bank whenever the simulation drains.
func TestOverlappingPushPurgeMatchesReference(t *testing.T) {
	const path, fileMax = "/p/churn", 96 << 10
	for _, bs := range []int64{256, 2048, 8192} {
		t.Run(fmt.Sprintf("block%d", bs), func(t *testing.T) {
			env, mounts, mcds, sm := newMultiRigSM(t, 2, 2, Config{BlockSize: bs})
			rng := newRand(uint64(bs) + 5)
			for life := 0; life < 6; life++ {
				ref := &refFile{}
				busy := true
				env.Process("rw", func(p *sim.Proc) {
					defer func() { busy = false }()
					m := mounts[0]
					fd, err := m.Create(p, path)
					if err != nil {
						t.Fatal(err)
					}
					for op := 0; op < 40; op++ {
						off := int64(rng.next() % fileMax)
						size := int64(rng.next()%(24<<10)) + 1
						if rng.next()%3 == 0 {
							payload := blob.Synthetic(rng.next()|1, int64(life*100+op), size)
							if _, err := m.Write(p, fd, off, payload); err != nil {
								t.Fatal(err)
							}
							ref.write(off, payload.Bytes())
							continue
						}
						got, err := m.Read(p, fd, off, size)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.read(off, size); !got.Equal(blob.FromBytes(want)) {
							t.Fatalf("life %d op %d: read [%d,%d) returned %d bytes that differ from the reference's %d",
								life, op, off, off+size, got.Len(), len(want))
						}
					}
					if err := m.Close(p, fd); err != nil {
						t.Fatal(err)
					}
				})
				env.Process("opener", func(p *sim.Proc) {
					m := mounts[1]
					for busy {
						p.Sleep(sim.Duration(time.Duration(rng.next()%400) * time.Microsecond))
						fd, err := m.Open(p, path)
						if err != nil {
							continue // not created yet
						}
						if err := m.Close(p, fd); err != nil {
							t.Fatal(err)
						}
					}
				})
				env.Run()
				checkResidentRecorded(t, sm, mcds, path)
				env.Process("unlink", func(p *sim.Proc) {
					if err := mounts[1].Unlink(p, path); err != nil {
						t.Fatal(err)
					}
				})
				env.Run()
				if left := residentBlocks(t, mcds, path); len(left) != 0 {
					t.Fatalf("life %d: %d data blocks survive the unlink", life, len(left))
				}
			}
			if sm.Stats.Purges == 0 || sm.Stats.BlockPushes == 0 {
				t.Fatalf("purges=%d pushes=%d; the mix exercised nothing", sm.Stats.Purges, sm.Stats.BlockPushes)
			}
		})
	}
}

// TestBlockSetMatchesMapReference drives the bitmap and a map[int64]struct{}
// with the same adds, removes and takes — dense runs, repeats and sparse
// offsets up to 2^62 bytes, at each block size — and requires take to yield
// exactly the map's keys in ascending order, with adds and removes
// interleaved between takes (the purge/push overlap: a purge takes from its
// snapshot and removes from the live set) and nothing left at the end.
func TestBlockSetMatchesMapReference(t *testing.T) {
	for _, bs := range []int64{256, 2048, 8192} {
		rng := newRand(uint64(bs))
		set, ref := new(blockSet), map[int64]struct{}{}
		add := func(bn int64) {
			set.add(bn)
			ref[bn] = struct{}{}
		}
		takeMin := func() {
			t.Helper()
			min := int64(math.MaxInt64)
			for bn := range ref {
				if bn < min {
					min = bn
				}
			}
			bn, ok := set.take()
			if ok != (len(ref) > 0) || (ok && bn != min) {
				t.Fatalf("bs %d: take = %d, %v; the reference holds %d, smallest %d", bs, bn, ok, len(ref), min)
			}
			delete(ref, bn)
		}
		for round := 0; round < 100; round++ {
			base := int64(rng.next()%(1<<62)) / bs // sparse: anywhere in the offset space
			if rng.next()%2 == 0 {
				base = int64(rng.next() % 4096) // dense: where files usually live
			}
			for i, n := int64(0), int64(rng.next()%700); i < n; i++ {
				add(base + i*int64(1+rng.next()%3))
			}
			for i, n := 0, int(rng.next()%900); i < n; i++ {
				takeMin()
				switch bn := int64(rng.next() % 8192); rng.next() % 8 {
				case 0:
					add(bn)
				case 1:
					set.remove(bn) // present or not
					delete(ref, bn)
				}
			}
			for bn := range ref {
				if !set.has(bn) {
					t.Fatalf("bs %d: block %d added but not a member", bs, bn)
				}
			}
		}
		for len(ref) > 0 {
			takeMin()
		}
		takeMin()
		if len(set.chunks) != 0 {
			t.Errorf("bs %d: an emptied set still holds %d chunks", bs, len(set.chunks))
		}
	}
}
