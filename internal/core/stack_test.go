package core

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// newMount builds a second mount on the rig's client node: Fuse over
// CMCache over the protocol client, the stack the rig's own mount is.
func newMount(r *rig, cfg Config) (gluster.FS, *CMCache) {
	node := r.net.Node("client0")
	cm := NewCMCache(gluster.NewClient(node, r.net.Node("server")), memcache.NewSimClient(node, r.mcds), cfg)
	return gluster.NewFuse(node, cm), cm
}

// TestFullTranslatorStackComposition runs the whole client translator
// stack against a server running SMCache over Posix, and checks data
// integrity under a mixed workload.
func TestFullTranslatorStackComposition(t *testing.T) {
	cfg := Config{BlockSize: 2048}
	r := newRig(t, 2, cfg)
	full, cm := newMount(r, cfg)

	ref := &refFile{}
	rng := newRand(2024)
	r.run(t, func(p *sim.Proc) {
		fd, err := full.Create(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			if rng.next()%2 == 0 {
				off := int64(rng.next() % 40000)
				size := int64(rng.next()%3000) + 1
				payload := blob.Synthetic(rng.next()|1, off, size)
				if _, err := full.Write(p, fd, off, payload); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				ref.write(off, payload.Bytes())
			} else {
				off := int64(rng.next() % 45000)
				size := int64(rng.next()%5000) + 1
				got, err := full.Read(p, fd, off, size)
				if err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				want := ref.read(off, size)
				if got.Len() != int64(len(want)) || !got.Equal(blob.FromBytes(want)) {
					t.Fatalf("op %d read [%d,%d): mismatch", op, off, off+size)
				}
			}
		}
		// Close purges; a reopen reads back the full reference content.
		if err := full.Close(p, fd); err != nil {
			t.Fatal(err)
		}
		fd, err = full.Open(p, "/stack/f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := full.Read(p, fd, 0, int64(len(ref.data)))
		if err != nil || !got.Equal(blob.FromBytes(ref.data)) {
			t.Fatalf("post-reopen readback mismatch: %v", err)
		}
		st, err := full.Stat(p, "/stack/f")
		if err != nil || st.Size != int64(len(ref.data)) {
			t.Fatalf("stat = %+v, %v; want size %d", st, err, len(ref.data))
		}
	})
	if cm.Stats.ReadHits == 0 || cm.Stats.StatHits == 0 {
		t.Errorf("bank not consulted through the stack: %+v", cm.Stats)
	}
}

// TestStackedStatStaysCoherent checks the stat path through the same
// stack: a blocking Stat returns the caller's own copy of the structure
// the bank hit lent, and a write through another mount is seen at once.
func TestStackedStatStaysCoherent(t *testing.T) {
	cfg := Config{BlockSize: 2048}
	r := newRig(t, 1, cfg)
	full, cm := newMount(r, cfg)
	r.run(t, func(p *sim.Proc) {
		fd, _ := full.Create(p, "/sc/f")
		full.Write(p, fd, 0, blob.Synthetic(1, 0, 5000))
		first, err := full.Stat(p, "/sc/f")
		if err != nil || first.Size != 5000 {
			t.Fatalf("stat through the stack = %+v, %v", first, err)
		}
		other, err := r.client.Open(p, "/sc/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Write(p, other, 5000, blob.Synthetic(2, 0, 3000)); err != nil {
			t.Fatal(err)
		}
		st, err := full.Stat(p, "/sc/f")
		if err != nil || st.Size != 8000 {
			t.Fatalf("stat after another mount's write = %+v, %v; want size 8000", st, err)
		}
		if first.Size != 5000 {
			t.Errorf("the first stat's result changed under its caller: %+v", first)
		}
	})
	if cm.Stats.StatHits != 2 {
		t.Errorf("stat hits = %d, want 2 (both served from the bank)", cm.Stats.StatHits)
	}
}
