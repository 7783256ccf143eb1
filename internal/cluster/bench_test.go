package cluster

import (
	"testing"

	"imca/internal/memcache"
	"imca/internal/sim"
)

// BenchmarkClusterNew is the set-up the benchmark's setup_s times, alone:
// cluster.New with rw_records' and cold_scan's options, which build
// nothing but the deployment. Poison mode is off, as in the benchmark, so
// allocs/op and B/op are what a deployment costs there; ns/op swings by
// tens of percent between runs of one binary, the counts do not.
func BenchmarkClusterNew(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"rw_records", Options{Clients: 32, MCDs: 2, MCDMemBytes: 3 << 30, ServerCacheBytes: 96 << 20}},
		{"cold_scan", Options{Clients: 8, MCDs: 1, MCDMemBytes: 32 << 20, ServerCacheBytes: 64 << 20,
			BlockSize: 2048, Selector: memcache.BlockModuloSelector{BlockSize: 2048}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			defer sim.SetPoison(sim.Poison())
			sim.SetPoison(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(bc.opts)
			}
		})
	}
}
