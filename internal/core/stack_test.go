package core

import (
	"fmt"
	"strings"
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
)

// procOnly hides any TaskFS implementation behind the ten blocking FS
// methods — the shape of the tree's blocking-only file systems (the Lustre
// and NFS clients, fault.Oracle, iotrace.Recorder).
type procOnly struct{ gluster.FS }

// newLiftedMount builds a second mount on the rig's client node with a
// blocking-only layer between CMCache and the protocol client and another
// above Fuse: Lift(procOnly(fuse(cmcache(procOnly(protocol))))). Nothing in
// it is task-ready, so every operation nests Await → Block → Await twice
// over: the caller awaits the top shim's *T, which blocks into Fuse's
// blocking method, which awaits Fuse's and CMCache's *T, which blocks into
// the protocol client's blocking method, which awaits its *T.
func newLiftedMount(t *testing.T, r *rig, cfg Config) (gluster.FS, *CMCache) {
	t.Helper()
	node := r.net.Node("client0")
	below := procOnly{gluster.NewClient(node, r.net.Node("server"))}
	cm := NewCMCache(below, memcache.NewSimClient(node, r.mcds), cfg)
	fuse := gluster.NewFuse(node, cm, gluster.DefaultFuseConfig)
	top := gluster.Lift(procOnly{fuse})
	if cm.TaskReady() || fuse.TaskReady() || top.TaskReady() || gluster.AsTaskFS(fuse) != nil {
		t.Fatal("a stack over a blocking-only layer must not report task-ready")
	}
	b := gluster.NewBlocking(top)
	return &b, cm
}

// TestFullTranslatorStackComposition puts a blocking-only layer above and
// below the task-style client translators, against a server running
// SMCache over Posix, and checks data integrity under a mixed workload:
// the translator architecture composes whichever style each layer is
// written in.
func TestFullTranslatorStackComposition(t *testing.T) {
	cfg := Config{BlockSize: 2048}
	r := newRig(t, 2, cfg)
	full, cm := newLiftedMount(t, r, cfg)

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
		t.Errorf("bank not consulted through the lifted stack: %+v", cm.Stats)
	}
}

// TestStackedStatStaysCoherent checks the stat path through the same
// stack: the structure comes back through two Block hand-offs as the
// caller's own copy, and a write through another mount is seen at once.
func TestStackedStatStaysCoherent(t *testing.T) {
	cfg := Config{BlockSize: 2048}
	r := newRig(t, 1, cfg)
	full, cm := newLiftedMount(t, r, cfg)
	r.run(t, func(p *sim.Proc) {
		fd, _ := full.Create(p, "/sc/f")
		full.Write(p, fd, 0, blob.Synthetic(1, 0, 5000))
		first, err := full.Stat(p, "/sc/f")
		if err != nil || first.Size != 5000 {
			t.Fatalf("stat through the lifted stack = %+v, %v", first, err)
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

// TestBrickRejectsBlockingChild: the brick side is task-native by
// construction — the daemon serves on the fabric frame's task and SMCache
// runs helpers as tasks — so both constructors refuse a storage stack that
// needs a process to block on, naming it.
func TestBrickRejectsBlockingChild(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	node := r.net.Node("server")
	for _, c := range []struct {
		name  string
		build func(child gluster.FS)
	}{
		{"NewServer", func(child gluster.FS) { gluster.NewServer(node, child, gluster.DefaultServerConfig) }},
		{"NewSMCache", func(child gluster.FS) {
			NewSMCache(r.env, child, memcache.NewSimClient(node, r.mcds), Config{BlockSize: 2048})
		}},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.name) || !strings.Contains(msg, "core.procOnly") {
					t.Errorf("%s over a blocking-only child: panic %q, want one naming %s and core.procOnly", c.name, msg, c.name)
				}
			}()
			c.build(procOnly{r.posix})
		}()
	}
}
