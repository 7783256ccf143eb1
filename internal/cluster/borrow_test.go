package cluster

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// TestBlockingResultsAreOwned pins the borrow rule of the derived blocking
// API. The *T operations only lend their results — CMCache decodes a stat
// hit into a pooled frame's scratch, the bank client's items alias a pooled
// response the fabric recycles when the continuation returns — so the
// adapters must copy before ending the Await. The test takes results from
// blocking Stat, Get, GetMulti and Read with frame poisoning on (TestMain),
// issues further operations that reuse every pool involved, and only then
// looks at what it was given first.
func TestBlockingResultsAreOwned(t *testing.T) {
	c := New(Options{Clients: 1, MCDs: 2, MCDMemBytes: 64 << 20, BlockSize: 2048})
	fs, cm := c.Mounts[0].FS, c.Mounts[0].CMCache
	bank := cm.Bank()
	sizes := map[string]int64{"/a": 3000, "/b": 5000}
	seeds := map[string]uint64{"/a": 1, "/b": 2}

	c.Env.Process("borrow", func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
		}
		fds := make(map[string]gluster.FD)
		for _, path := range []string{"/a", "/b"} {
			fd, err := fs.Create(p, path)
			must(err)
			_, err = fs.Write(p, fd, 0, blob.Synthetic(seeds[path], 0, sizes[path]))
			must(err)
			fds[path] = fd
		}

		// Stat: both are bank hits decoded into the same pooled statOp.
		stA, err := fs.Stat(p, "/a")
		must(err)
		stB, err := fs.Stat(p, "/b")
		must(err)

		// Get and GetMulti straight at the bank: items alias pooled replies.
		itA, okA := bank.Get(p, "/a:stat")
		itB, okB := bank.Get(p, "/b:stat")
		multi := bank.GetMulti(p, []string{"/a:0", "/b:2048", "/missing", "/a:2048"})

		// Read through the mount: assembled from bank blocks.
		dataA, err := fs.Read(p, fds["/a"], 0, sizes["/a"])
		must(err)
		dataB, err := fs.Read(p, fds["/b"], 0, sizes["/b"])
		must(err)

		// Churn every pool the results above came from.
		for i := 0; i < 8; i++ {
			_, err = fs.Stat(p, "/b")
			must(err)
			bank.Get(p, "/b:0")
			bank.GetMulti(p, []string{"/b:0", "/b:4096"})
			_, err = fs.Read(p, fds["/b"], 1024, 2048)
			must(err)
		}

		// Only now inspect the earlier results.
		if stA.Path != "/a" || stA.Size != sizes["/a"] || stB.Path != "/b" || stB.Size != sizes["/b"] {
			t.Errorf("stats changed under the caller: %+v, %+v", stA, stB)
		}
		if !okA || !okB || itA.Key != "/a:stat" || itB.Key != "/b:stat" || itA.Value.Equal(itB.Value) {
			t.Errorf("Get items changed under the caller: %v %+v, %v %+v", okA, itA, okB, itB)
		}
		wantMulti := []struct {
			key string
			val blob.Blob
		}{
			{"/a:0", blob.Synthetic(1, 0, 2048)},
			{"/b:2048", blob.Synthetic(2, 2048, 2048)},
			{},
			{"/a:2048", blob.Synthetic(1, 2048, 3000-2048)},
		}
		for i, w := range wantMulti {
			switch it := multi[i]; {
			case w.key == "" && it != nil:
				t.Errorf("GetMulti[%d] = %+v, want a miss", i, it)
			case w.key != "" && (it == nil || it.Key != w.key || !it.Value.Equal(w.val)):
				t.Errorf("GetMulti[%d] changed under the caller: %+v, want key %s", i, it, w.key)
			}
		}
		if !dataA.Equal(blob.Synthetic(1, 0, sizes["/a"])) || !dataB.Equal(blob.Synthetic(2, 0, sizes["/b"])) {
			t.Error("read data changed under the caller")
		}
	})
	c.Env.Run()

	// Not vacuous: the stats and reads above really were bank hits.
	if cm.Stats.StatHits < 2 || cm.Stats.ReadHits < 2 {
		t.Fatalf("expected bank hits, got %+v", cm.Stats)
	}
}
