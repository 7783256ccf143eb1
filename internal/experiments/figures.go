package experiments

import (
	"fmt"

	"imca/internal/cluster"
	"imca/internal/fabric"
	"imca/internal/memcache"
)

// Fig1a reproduces the motivation figure with 4 GB of server memory.
func Fig1a(o Options) *Result { return fig1(o, 4<<30, "fig1a").run(o) }

// Fig1b reproduces the motivation figure with 8 GB of server memory.
func Fig1b(o Options) *Result { return fig1(o, 8<<30, "fig1b").run(o) }

// fig1 measures multi-client IOzone read bandwidth against a single NFS
// server for each transport. Every client streams its own 1 GB file; as
// the aggregate working set outgrows the server's page cache, reads fall
// back to the disk array and bandwidth collapses — the paper's case for an
// intermediate cache tier.
func fig1(o Options, serverMem int64, name string) figure {
	fileSize := scaled(1<<30, o.scale())
	mem := scaled(serverMem, o.scale())
	return figure{
		name:  name,
		title: fmt.Sprintf("Fig 1 (%s): NFS IOzone read bandwidth, server memory %s", name, fmtSize(serverMem)),
		x:     "clients", y: "aggregate MB/s",
		rows:    []int64{1, 2, 4, 8},
		systems: []system{nfsSys(fabric.RDMA, mem), nfsSys(fabric.IPoIB, mem), nfsSys(fabric.GigE, mem)},
		cell:    streamRead(fileSize, fileSize/16),
		notes: func(f *filled) {
			f.note("at %s clients: RDMA %.0f MB/s, IPoIB %.0f MB/s, GigE %.0f MB/s",
				f.lastX(), f.last("RDMA"), f.last("IPoIB"), f.last("GigE"))
			f.note("working set at max clients = %s x %s vs server memory %s",
				f.lastX(), fmtSize(fileSize), fmtSize(mem))
		},
	}
}

// Fig5 reproduces the stat benchmark: 262144 files are created (untimed),
// then every client stats every file; the maximum per-client completion
// time is reported for GlusterFS without the cache, with 1/2/4/6 MCDs, and
// for Lustre with 4 data servers.
//
// Per-MCD memory is calibrated so one MCD cannot hold the full stat
// working set (reproducing the paper's observation that the miss rate only
// reaches zero beyond 2 MCDs) while two or more can.
func Fig5(o Options) *Result { return fig5(o, 1, "fig5").run(o) }

// Fig5Short is the stat benchmark's reduced-event variant: the same point
// list (every client count × every column) over the same created namespace,
// but each client stats a stratified sample — every 8th file in scan order —
// instead of all of them. Event count per point drops ~8×, relative
// comparisons between columns survive (every column is sampled identically),
// and absolute times scale by the sampling factor. It exists so CI-grade
// sweeps can exercise the full fig5 matrix cheaply; the headline numbers
// still come from fig5.
func Fig5Short(o Options) *Result { return fig5(o, fig5ShortStride, "fig5-short").run(o) }

const fig5ShortStride = 8

func fig5(o Options, stride int, name string) figure {
	nFiles := max(262144/o.scale(), 256)
	// Size each MCD to hold the stat working set with headroom. (A pure
	// LRU cache under the benchmark's cyclic scan either fits or
	// thrashes completely, so the paper's small nonzero miss rate with
	// one MCD is not reproducible — see EXPERIMENTS.md.)
	statWorkingSet := int64(nFiles) * 160
	mcdMem := max(statWorkingSet*2, 4<<20)

	systems := []system{glusterSys("NoCache", cluster.Options{})}
	for _, m := range []int{1, 2, 4, 6} {
		systems = append(systems, glusterSys(fmt.Sprintf("MCD(%d)", m), cluster.Options{MCDs: m, MCDMemBytes: mcdMem}))
	}
	systems = append(systems, lustreSys("Lustre-4DS", 4, false))
	title := "Fig 5: time to stat all files from every client"
	if stride > 1 {
		title = fmt.Sprintf("Fig 5 (short): time to stat every %dth file from every client", stride)
	}
	return figure{
		name: name, title: title, x: "clients", y: "seconds",
		rows:    []int64{1, 2, 4, 8, 16, 32, 64},
		systems: systems,
		cell:    statAll(nFiles, stride),
		notes: func(f *filled) {
			f.note("at %s clients, 1 MCD cuts stat time %.0f%% vs NoCache (paper: 82%%)",
				f.lastX(), f.cut(f.end(), "NoCache", "MCD(1)"))
			f.note("at %s clients, 6 MCDs are %.0f%% below Lustre-4DS (paper: 86%%)",
				f.lastX(), f.cut(f.end(), "Lustre-4DS", "MCD(6)"))
			f.note("at %s clients, 1 MCD is %.0f%% below Lustre-4DS (paper: 56%%)",
				f.lastX(), f.cut(f.end(), "Lustre-4DS", "MCD(1)"))
			f.note("MCD miss rates at %s clients: 1 MCD %.1f%%, 2 MCDs %.1f%%, 4 MCDs %.1f%% (paper: zero beyond 2)",
				f.lastX(), 100*f.missRate("MCD(1)"), 100*f.missRate("MCD(2)"), 100*f.missRate("MCD(4)"))
			f.note("4->6 MCD improvement at %s clients: %.0f%% (paper: 23%%)",
				f.lastX(), f.cut(f.end(), "MCD(4)", "MCD(6)"))
		},
	}
}

// fig6Read declares the single-client read-latency table for the given
// record-size window: seven deployments, one per column. Under Observe the
// NoCache and IMCa-2K columns are traced, and IMCa-2K is also instrumented
// on its own registry with its operations retained for export.
func fig6Read(o Options, name, title string, window []int64, notes func(*filled)) figure {
	mem := o.mcdMemForLatency()
	return figure{
		name: name, title: title, x: "record size", y: "read latency (µs/op)",
		rows:    window,
		clients: 1,
		systems: []system{
			glusterSys("NoCache", cluster.Options{}).watched(traced),
			glusterSys("IMCa-256", cluster.Options{MCDs: 1, MCDMemBytes: mem, BlockSize: 256}),
			glusterSys("IMCa-2K", cluster.Options{MCDs: 1, MCDMemBytes: mem, BlockSize: 2048}).watched(instrumented),
			glusterSys("IMCa-8K", cluster.Options{MCDs: 1, MCDMemBytes: mem, BlockSize: 8192}),
			lustreSys("Lustre-1DS(Cold)", 1, true),
			lustreSys("Lustre-4DS(Cold)", 4, true),
			lustreSys("Lustre-4DS(Warm)", 4, false),
		},
		column: readLatency,
		notes:  notes,
	}
}

// Fig6a is the small-record read latency sweep (1 B – 2 KB): IMCa wins at
// small records, with smaller blocks winning bigger margins (paper: 59% /
// 45% / 31% cuts at 1 byte for 256 B / 2 KB / 8 KB blocks).
func Fig6a(o Options) *Result { return fig6a(o).run(o) }

func fig6a(o Options) figure {
	return fig6Read(o, "fig6a", "Fig 6(a): single-client read latency, small records", powersOfTwo(1, 2048),
		func(f *filled) {
			f.note("1-byte read: IMCa-256 cuts %.0f%% vs NoCache (paper: 59%%)", f.cut(0, "NoCache", "IMCa-256"))
			f.note("1-byte read: IMCa-2K cuts %.0f%% vs NoCache (paper: 45%%)", f.cut(0, "NoCache", "IMCa-2K"))
			f.note("1-byte read: IMCa-8K cuts %.0f%% vs NoCache (paper: 31%%)", f.cut(0, "NoCache", "IMCa-8K"))
			f.note("Lustre-4DS(Warm) lowest at small records: %v",
				f.first("Lustre-4DS(Warm)") < f.first("IMCa-256"))
		})
}

// Fig6b is the large-record window (4 KB – 128 KB): NoCache overtakes the
// 256-byte-block configuration and eventually all IMCa block sizes.
func Fig6b(o Options) *Result { return fig6b(o).run(o) }

func fig6b(o Options) figure {
	return fig6Read(o, "fig6b", "Fig 6(b): single-client read latency, large records", powersOfTwo(4096, 131072),
		func(f *filled) {
			f.note("at %s records NoCache beats IMCa-256: %v (paper: NoCache lowest overall at large records)",
				f.lastX(), f.last("NoCache") < f.last("IMCa-256"))
			f.note("at %s records NoCache vs IMCa-2K: %.0f vs %.0f µs",
				f.lastX(), f.last("NoCache"), f.last("IMCa-2K"))
		})
}

// Fig6c is the write-latency comparison: the inline SMCache update puts a
// read-back on the critical path (worse than NoCache); the threaded update
// removes it (paper: threaded ≈ NoCache). Under Observe both IMCa columns
// are traced.
func Fig6c(o Options) *Result { return fig6c(o).run(o) }

func fig6c(o Options) figure {
	mem := o.mcdMemForLatency()
	const mid = 3 // the 2K row
	return figure{
		name: "fig6c", title: "Fig 6(c): single-client write latency, IMCa block 2K",
		x: "record size", y: "write latency (µs/op)",
		rows:    []int64{1, 16, 256, 2048, 8192, 65536},
		clients: 1,
		systems: []system{
			glusterSys("NoCache", cluster.Options{}),
			glusterSys("IMCa(inline)", cluster.Options{MCDs: 1, MCDMemBytes: mem, BlockSize: 2048}).watched(traced),
			glusterSys("IMCa(threaded)", cluster.Options{MCDs: 1, MCDMemBytes: mem, BlockSize: 2048, Threaded: true}).watched(traced),
		},
		column: writeLatency,
		notes: func(f *filled) {
			f.note("2K writes: inline %.0f µs vs NoCache %.0f µs (paper: inline worse — extra read + MCD update)",
				f.Value(mid, "IMCa(inline)"), f.Value(mid, "NoCache"))
			f.note("2K writes: threaded %.0f µs vs NoCache %.0f µs (paper: threaded ≈ NoCache)",
				f.Value(mid, "IMCa(threaded)"), f.Value(mid, "NoCache"))
		},
	}
}

// Fig7a reproduces the 32-client read-latency sweep for small records
// (1–128 bytes) with 1, 2, and 4 MCDs, against GlusterFS NoCache and
// Lustre-4DS cold/warm. The paper's headlines: 82% latency cut at 1 byte
// with 4 MCDs; Lustre cold is ahead below 32 bytes, IMCa-4MCD after.
func Fig7a(o Options) *Result { return fig7a(o).run(o) }

func fig7a(o Options) figure {
	return fig7(o, "fig7a", "Fig 7(a): 32-client read latency, small records", powersOfTwo(1, 128),
		func(f *filled) {
			f.note("1-byte read: 4 MCDs cut %.0f%% vs NoCache (paper: 82%%)", f.cut(0, "NoCache", "IMCa(4MCD)"))
			f.note("1-byte read: Lustre(Cold) %.0f µs vs IMCa(4MCD) %.0f µs (paper: Lustre ahead below 32 B)",
				f.first("Lustre-4DS(Cold)"), f.first("IMCa(4MCD)"))
		})
}

// Fig7b is the medium-record window (512 B – 64 KB); the paper reports
// IMCa(4MCD) overtaking Lustre cold past 32 bytes and approaching — then
// beating — Lustre warm by 64 KB.
func Fig7b(o Options) *Result { return fig7b(o).run(o) }

func fig7b(o Options) figure {
	return fig7(o, "fig7b", "Fig 7(b): 32-client read latency, medium records", powersOfTwo(512, 65536),
		func(f *filled) {
			f.note("at %s records: IMCa(4MCD) %.0f µs vs Lustre(Cold) %.0f µs",
				f.lastX(), f.last("IMCa(4MCD)"), f.last("Lustre-4DS(Cold)"))
			f.note("at %s records: IMCa(4MCD) %.0f µs vs Lustre(Warm) %.0f µs (paper: IMCa lower at 64K)",
				f.lastX(), f.last("IMCa(4MCD)"), f.last("Lustre-4DS(Warm)"))
		})
}

func fig7(o Options, name, title string, window []int64, notes func(*filled)) figure {
	systems := []system{glusterSys("NoCache", cluster.Options{})}
	for _, m := range []int{1, 2, 4} {
		systems = append(systems, glusterSys(fmt.Sprintf("IMCa(%dMCD)", m),
			cluster.Options{MCDs: m, MCDMemBytes: o.mcdMemForLatency()}))
	}
	return figure{
		name: name, title: title, x: "record size", y: "read latency (µs/op)",
		rows:    window,
		clients: 32,
		systems: append(systems, lustreSys("Lustre-4DS(Cold)", 4, true), lustreSys("Lustre-4DS(Warm)", 4, false)),
		column:  readLatency,
		notes:   notes,
	}
}

// Fig8a–Fig8d reproduce the client-count sweeps with a single MCD at four
// record sizes. The paper's observation: with one MCD, read latency rises
// with client count as capacity misses appear, yet IMCa still beats
// NoCache; Lustre warm stays lowest.
func Fig8a(o Options) *Result { return fig8(o, "fig8a", 64).run(o) }

// Fig8b is the 1 KB variant.
func Fig8b(o Options) *Result { return fig8(o, "fig8b", 1024).run(o) }

// Fig8c is the 8 KB variant.
func Fig8c(o Options) *Result { return fig8(o, "fig8c", 8192).run(o) }

// Fig8d is the 64 KB variant.
func Fig8d(o Options) *Result { return fig8(o, "fig8d", 65536).run(o) }

func fig8(o Options, name string, record int64) figure {
	return figure{
		name:  name,
		title: fmt.Sprintf("Fig 8 (%s): read latency vs clients, %s records, 1 MCD", name, fmtSize(record)),
		x:     "clients", y: "read latency (µs/op)",
		rows: []int64{1, 2, 4, 8, 16, 32},
		systems: []system{
			glusterSys("NoCache", cluster.Options{}),
			glusterSys("IMCa(1MCD)", cluster.Options{MCDs: 1, MCDMemBytes: o.mcdMemForLatency()}),
			lustreSys("Lustre-4DS(Cold)", 4, true),
			lustreSys("Lustre-4DS(Warm)", 4, false),
		},
		cell: recordRead(record, false),
		notes: func(f *filled) {
			f.note("latency growth for IMCa(1MCD), 1 -> %s clients: %.0f -> %.0f µs (paper: rises with clients)",
				f.lastX(), f.first("IMCa(1MCD)"), f.last("IMCa(1MCD)"))
			f.note("at %s clients IMCa(1MCD) cuts %.0f%% vs NoCache",
				f.lastX(), f.cut(f.end(), "NoCache", "IMCa(1MCD)"))
			f.note("MCD misses at max clients: %d", f.bank["IMCa(1MCD)"].GetMisses)
		},
	}
}

// Fig9 reproduces the IOzone read-throughput experiment: each thread
// streams a 1 GB file in large records through an IMCa block size of 2 KB,
// with the CRC32 hash replaced by a static modulo (round-robin) so
// consecutive blocks spread across all MCDs. The paper reports 868 MB/s
// with 8 threads and 4 MCDs — roughly 2x NoCache (417 MB/s) and well above
// Lustre-1DS cold (325 MB/s).
func Fig9(o Options) *Result { return fig9(o).run(o) }

func fig9(o Options) figure {
	fileSize := scaled(1<<30, o.scale())
	record := min(fileSize/16, 1<<20)
	for fileSize%record != 0 {
		record /= 2
	}
	const blockSize = 2048

	systems := []system{glusterSys("NoCache", cluster.Options{})}
	for _, m := range []int{1, 2, 4} {
		systems = append(systems, glusterSys(fmt.Sprintf("IMCa(%dMCD)", m), cluster.Options{
			MCDs: m, MCDMemBytes: scaled(6<<30, o.scale()), BlockSize: blockSize,
			Selector: memcache.BlockModuloSelector{BlockSize: blockSize},
		}))
	}
	return figure{
		name:  "fig9",
		title: "Fig 9: IOzone read throughput, 1 GB/thread, IMCa block 2K, round-robin MCD selection",
		x:     "threads", y: "aggregate MB/s",
		rows:    []int64{1, 2, 4, 8},
		systems: append(systems, lustreSys("Lustre-1DS(Cold)", 1, true)),
		cell:    streamRead(fileSize, record),
		notes: func(f *filled) {
			f.note("at 8 threads: IMCa(4MCD) %.0f MB/s vs NoCache %.0f MB/s — ratio %.2fx (paper: 868 vs 417, ~2.1x)",
				f.last("IMCa(4MCD)"), f.last("NoCache"), f.last("IMCa(4MCD)")/f.last("NoCache"))
			f.note("at 8 threads: IMCa(4MCD) %.0f MB/s vs Lustre-1DS(Cold) %.0f MB/s (paper: 868 vs 325)",
				f.last("IMCa(4MCD)"), f.last("Lustre-1DS(Cold)"))
			f.note("MCD scaling at 8 threads: 1/2/4 MCDs = %.0f / %.0f / %.0f MB/s",
				f.last("IMCa(1MCD)"), f.last("IMCa(2MCD)"), f.last("IMCa(4MCD)"))
		},
	}
}

// Fig10 reproduces the read/write-sharing experiment: all nodes use one
// file; the root node writes it, then every node reads it back, with
// barriers between phases and record sizes. The paper reports a 45%
// latency cut at 32 nodes with one MCD, growing with node count but still
// linear because a single MCD serializes the readers.
func Fig10(o Options) *Result { return fig10(o).run(o) }

func fig10(o Options) figure {
	return figure{
		name: "fig10", title: "Fig 10: read latency to a shared file (root writes, all read)",
		x: "clients", y: "read latency (µs/op)",
		rows: []int64{2, 4, 8, 16, 32},
		systems: []system{
			glusterSys("NoCache", cluster.Options{}),
			glusterSys("IMCa(1MCD)", cluster.Options{MCDs: 1, MCDMemBytes: scaled(6<<30, o.scale())}),
			lustreSys("Lustre-1DS(Cold)", 1, true),
		},
		cell: recordRead(4096, true),
		notes: func(f *filled) {
			f.note("at %s nodes IMCa(1MCD) cuts %.0f%% vs NoCache (paper: 45%%)",
				f.lastX(), f.cut(f.end(), "NoCache", "IMCa(1MCD)"))
			f.note("IMCa benefit grows with nodes: %.0f%% at %s -> %.0f%% at %s",
				f.cut(0, "NoCache", "IMCa(1MCD)"), f.X(0), f.cut(f.end(), "NoCache", "IMCa(1MCD)"), f.lastX())
		},
	}
}
