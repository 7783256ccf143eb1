package core

import (
	"testing"

	"imca/internal/blob"
	"imca/internal/memcache"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// TestShortBlockForwardsToServer is the regression test for the
// hit-assembly bug: a stale short block in the middle of the covering
// range used to produce a silent short read; it must instead be treated as
// a miss and forwarded to the server.
func TestShortBlockForwardsToServer(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	payload := blob.Synthetic(7, 0, 6000)
	r.run(t, func(p *sim.Proc) {
		fd, err := r.client.Create(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Write(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		// Fabricate the inconsistency: block 0 is replaced by a short
		// version (as a stale tail block of a since-grown file would be)
		// while the later blocks remain. Every covering key still hits.
		r.mcds[0].Store().Set(&memcache.Item{Key: blockKey("/s", 0), Value: payload.Slice(0, 1000)})
		got, err := r.client.Read(p, fd, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 4096 {
			t.Fatalf("read returned %d bytes, want 4096 (silent short read)", got.Len())
		}
		if !got.Equal(payload.Slice(0, 4096)) {
			t.Error("read data mismatch after server fallback")
		}
	})
	if r.cmcache.Stats.ReadMisses != 1 {
		t.Errorf("ReadMisses = %d, want 1 (the short assembly must count as a miss)",
			r.cmcache.Stats.ReadMisses)
	}
	if r.cmcache.Stats.ReadHits != 0 {
		t.Errorf("ReadHits = %d, want 0", r.cmcache.Stats.ReadHits)
	}
}

// TestLegitimateEOFShortReadStillWorks: a short final block is a valid
// end-of-file claim and must keep serving from the cache.
func TestLegitimateEOFShortReadStillWorks(t *testing.T) {
	r := newRig(t, 1, Config{BlockSize: 2048})
	payload := blob.Synthetic(8, 0, 3000)
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/e")
		r.client.Write(p, fd, 0, payload)
		// Request past EOF: blocks 0 (full) and 2048 (short tail). The
		// bank misses block 4096 (never written), so widen the request to
		// exactly the existing blocks.
		got, err := r.client.Read(p, fd, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3000 || !got.Equal(payload) {
			t.Errorf("EOF short read returned %d bytes, want 3000", got.Len())
		}
	})
	if r.cmcache.Stats.ReadHits != 1 || r.cmcache.Stats.ReadMisses != 0 {
		t.Errorf("hits/misses = %d/%d, want 1/0",
			r.cmcache.Stats.ReadHits, r.cmcache.Stats.ReadMisses)
	}
}

// TestReadWithOneMCDDownCompletes: failing 1 MCD of 4 mid-run turns its
// blocks into misses; the read falls back to the server and the data stays
// correct. The dead daemon's resets are visible in BankStats.
func TestReadWithOneMCDDownCompletes(t *testing.T) {
	r := newRig(t, 4, Config{BlockSize: 2048})
	payload := blob.Synthetic(13, 0, 32768)
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/m")
		r.client.Write(p, fd, 0, payload)
		r.mcds[2].Fail()
		got, err := r.client.Read(p, fd, 0, 32768)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(payload) {
			t.Error("data mismatch with one MCD down")
		}
	})
	if r.cmcache.Stats.ReadMisses != 1 {
		t.Errorf("ReadMisses = %d, want 1", r.cmcache.Stats.ReadMisses)
	}
	if got := r.cmcache.Bank().Stats().DownReplies; got == 0 {
		t.Error("DownReplies = 0, want > 0 (one scatter batch hit the dead MCD)")
	}
}

// TestTraceLayersSumToEndToEnd: for a traced read, the per-layer exclusive
// times telescope to the operation's end-to-end duration.
func TestTraceLayersSumToEndToEnd(t *testing.T) {
	r := newRig(t, 2, Config{BlockSize: 2048})
	col := optrace.NewCollector()
	r.run(t, func(p *sim.Proc) {
		fd, _ := r.client.Create(p, "/t")
		r.client.Write(p, fd, 0, blob.Synthetic(5, 0, 8192))
		col.Begin(p, "read")
		root := optrace.StartSpan(p, optrace.LayerOp, "read")
		if _, err := r.client.Read(p, fd, 0, 8192); err != nil {
			t.Fatal(err)
		}
		root.End(p)
		op := col.End(p)
		var sum sim.Duration
		for _, lt := range op.ByLayer() {
			sum += lt.Self
		}
		if sum != op.Dur() || sum == 0 {
			t.Errorf("layer selves sum to %v, want end-to-end %v (nonzero)", sum, op.Dur())
		}
	})
}
