package experiments

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/fabric"
	"imca/internal/gluster"
	"imca/internal/memcache"
	"imca/internal/sim"
	"imca/internal/workload"
)

// The paper's §7 lists four future-work directions; ext-rdma, ext-hash,
// ext-lustre and ext-sharing implement and evaluate them on the same
// testbed. ext-smallfile, ext-mdtest and ext-bricks extend §3, §5.2 and
// §2.1. All seven are declarations (see grid.go).

// extRDMA measures single-client read latency of the full IMCa stack when
// the interconnect is native RDMA rather than IPoIB — quantifying the
// paper's conjecture that RDMA "can help reduce the overhead of the cache
// bank".
func extRDMA(o Options) figure {
	over := func(name string, tr fabric.Transport) system {
		return glusterSys(name, cluster.Options{Transport: tr, MCDs: 2, MCDMemBytes: o.sized().latencyMCD})
	}
	return figure{
		name: "ext-rdma", title: "Extension: IMCa read latency, IPoIB vs native RDMA transport",
		x: "record size", y: "read latency (µs/op)",
		rows:    powersOfTwo(1, 65536),
		clients: 1,
		systems: []system{over("IMCa/IPoIB", fabric.IPoIB), over("IMCa/RDMA", fabric.RDMA)},
		column:  readLatency,
		claims: func(f *filled) {
			f.order("RDMA can help reduce the overhead of the cache bank (§7)",
				f.everyRow(func(i int) bool { return f.Value(i, "IMCa/RDMA") < f.Value(i, "IMCa/IPoIB") }),
				"RDMA below IPoIB at every record size: %.0f%% off at 1 byte, %.0f%% at %s",
				f.cut(0, "IMCa/IPoIB", "IMCa/RDMA"), f.cut(f.end(), "IMCa/IPoIB", "IMCa/RDMA"), f.lastX())
		},
	}
}

// extHash compares key-distribution algorithms for the bank: the default
// CRC32, the static block modulo, and ketama consistent hashing — plus the
// resize stability (fraction of keys that move when the bank grows by one
// daemon), which is consistent hashing's raison d'être.
func extHash(o Options) figure {
	fileSize := o.sized().stream
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("/io/f%06d:%d", i%64, int64(i)*2048)
	}
	with := func(name string, sel memcache.Selector) system {
		return glusterSys(name, cluster.Options{
			MCDs: 4, MCDMemBytes: o.sized().mcd, BlockSize: 2048, Selector: sel,
		})
	}
	const tput, moved = 0, 1 // the rows
	return figure{
		name: "ext-hash", title: "Extension: key distribution across the bank (4 MCDs, 4 readers)",
		x: "metric", y: "value",
		rows:    []int64{tput, moved},
		labels:  []string{"read MB/s", "% keys moved on bank grow 4->5"},
		clients: 4,
		systems: []system{
			with("CRC32", memcache.CRC32Selector{}),
			with("Modulo", memcache.BlockModuloSelector{BlockSize: 2048}),
			with("Ketama", memcache.NewKetamaSelector()),
		},
		// Each column's point owns its selector instance for both the
		// cluster run and the post-hoc resize-stability count.
		column: func(o Options, tb testbed, _ []int64) ([]float64, traces) {
			return []float64{
				streamRead(fileSize, fileSize/16)(o, tb, 0),
				100 * memcache.MovedKeys(tb.cluster.Opts.Selector, keys, 4),
			}, traces{}
		},
		claims: func(f *filled) {
			crc, mod, ket := f.Value(tput, "CRC32"), f.Value(tput, "Modulo"), f.Value(tput, "Ketama")
			f.order("read throughput does not depend on the key distribution once batches span the bank",
				near(max(crc, mod, ket), min(crc, mod, ket)), "read MB/s: CRC32 %.0f, Modulo %.0f, Ketama %.0f", crc, mod, ket)
			f.order("consistent hashing moves under half the keys a modulo hash moves when the bank grows", f.Value(moved, "Ketama") < f.Value(moved, "CRC32")/2,
				"bank grow 4->5: ketama moves %.0f%% of keys vs %.0f%% for CRC32 modulo", f.Value(moved, "Ketama"), f.Value(moved, "CRC32"))
		},
	}
}

// extLustre attaches the cache bank to Lustre with the client-populated
// CMCache and repeats the shared-file experiment (Fig 10's workload):
// readers of a just-written file are served by the bank instead of the
// OSTs.
func extLustre(o Options) figure {
	return figure{
		name: "ext-lustre", title: "Extension: cache bank on Lustre (client-populated CMCache), shared file",
		x: "clients", y: "read latency (µs/op)",
		rows:    []int64{2, 4, 8, 16, 32},
		systems: []system{lustreSys("Lustre-1DS(Cold)", 1, true), bankOnLustreSys("Lustre+IMCa(2MCD)")},
		cell:    recordRead(4096, true),
		claims: func(f *filled) {
			f.rising("the cache servers may be integrated into a file system such as Lustre (§7)", f.end(), "Lustre+IMCa(2MCD)", "Lustre-1DS(Cold)")
		},
	}
}

// extSharing compares the two caching strategies the paper's §7 asks
// about under repeated read/write sharing: Lustre's coherent client cache
// pays a revocation per writer update and a refetch per reader, while the
// intermediate bank absorbs both.
func extSharing(o Options) figure {
	const lus, imca = "Lustre(coherent client cache)", "IMCa(2MCD)"
	return figure{
		name: "ext-sharing", title: "Extension: coherent client cache vs cache bank, repeated write/read rounds",
		x: "clients", y: "read latency per round (µs)",
		rows: []int64{2, 4, 8, 16, 32},
		systems: []system{
			lustreSys(lus, 1, false),
			glusterSys(imca, cluster.Options{MCDs: 2, MCDMemBytes: o.sized().latencyMCD}),
		},
		cell: sharingRounds,
		claims: func(f *filled) {
			f.rising("under write/read sharing the bank outscales a coherent client cache (§7)", f.end(), imca, lus)
		},
	}
}

// sharingRounds is ext-sharing's cell: client 0 rewrites a shared 64 KB
// chunk, everyone reads it back, eight times over with barriers between;
// the mean read latency per client per round.
func sharingRounds(_ Options, tb testbed, _ int64) float64 {
	const rounds = 8
	const chunk = int64(64 << 10)
	env, mounts, nc := tb.env, tb.mounts, len(tb.mounts)
	fds := make([]gluster.FD, nc)
	env.Process("setup", func(p *sim.Proc) {
		fds[0] = writeFile(p, mounts[0], "ext-sharing", "/rw/shared", chunk, chunk)
		for i := 1; i < nc; i++ {
			var err error
			if fds[i], err = mounts[i].Open(p, "/rw/shared"); err != nil {
				panic(err)
			}
		}
	})
	env.Run()

	bar := sim.NewBarrier(env, nc)
	var readTime sim.Duration
	for i := 0; i < nc; i++ {
		i := i
		fs := mounts[i]
		env.Process(fmt.Sprintf("rw-%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				if i == 0 {
					_, _ = mounts[0].Write(p, fds[0], 0, blob.Synthetic(uint64(r)+2, 0, chunk))
				}
				bar.Wait(p)
				t0 := p.Now()
				if _, err := fs.Read(p, fds[i], 0, chunk); err != nil {
					panic(err)
				}
				readTime += p.Now().Sub(t0)
				bar.Wait(p)
			}
		})
	}
	env.Run()
	return usPerOp(readTime / sim.Duration(rounds*nc))
}

// extSmallFiles evaluates the paper's §3 small-file motivation and, in the
// process, quantifies a consequence of IMCa's purge-on-open rule: with
// per-access open/read/close (the classic web-object pattern), every open
// purges the file's cached blocks, so the bank cannot help — it even adds
// the miss round trip. With persistent handles, the hot set is served
// almost entirely by the bank.
func extSmallFiles(o Options) figure {
	files, accesses := o.sized().smallFiles, o.sized().accesses
	const fileSize = 8 << 10  // "small" files: 8 KB
	const kept, reopen = 0, 1 // the rows
	return figure{
		name: "ext-smallfile", title: "Extension: small-file workload (8 KB files, power-law popularity, 32 clients)",
		x: "pattern", y: "avg access latency (µs)",
		rows:    []int64{kept, reopen},
		labels:  []string{"handles kept open", "open/read/close per access"},
		clients: 32,
		systems: []system{
			glusterSys("NoCache", cluster.Options{}),
			glusterSys("IMCa(4MCD)", cluster.Options{MCDs: 4, MCDMemBytes: o.sized().mcd}),
		},
		cell: func(o Options, tb testbed, pattern int64) float64 {
			res := workload.SmallFiles(tb.env, tb.mounts, workload.SmallFilesOptions{
				Dir: "/web", Files: files, FileSize: fileSize,
				Accesses: accesses, Reopen: pattern == reopen, Seed: 42,
			})
			return usPerOp(res.AvgAccess)
		},
		claims: func(f *filled) {
			f.rising("the bank serves a hot set of small files (§3)", kept, "IMCa(4MCD)", "NoCache")
			f.rising("open purges a file's cached blocks (§4.4), so open-per-access defeats the bank", reopen, "NoCache", "IMCa(4MCD)")
		},
	}
}

// extMDTest extends the paper's stat benchmark (§5.2) to the full metadata
// life cycle with an mdtest-style create/stat/unlink sweep: stat is where
// the bank shines; create and unlink pass through to the server (the paper
// sees "not much potential for cache based optimizations" there) and gain
// nothing — but must not regress either, beyond the purge bookkeeping.
func extMDTest(o Options) figure {
	files := o.sized().mdFiles
	const clients = 16
	const create, stat, unlink = 0, 1, 2 // the rows
	ratio := func(f *filled, phase int) float64 { return f.Value(phase, "IMCa(2MCD)") / f.Value(phase, "NoCache") }
	return figure{
		name:  "ext-mdtest",
		title: fmt.Sprintf("Extension: mdtest metadata rates, %d clients, %d files", clients, files),
		x:     "phase", y: "aggregate ops/s",
		rows:    []int64{create, stat, unlink},
		labels:  []string{"create", "stat", "unlink"},
		clients: clients,
		systems: []system{
			glusterSys("NoCache", cluster.Options{}),
			glusterSys("IMCa(2MCD)", cluster.Options{MCDs: 2, MCDMemBytes: o.sized().mcd}),
			lustreSys("Lustre-4DS", 4, false),
		},
		column: func(o Options, tb testbed, _ []int64) ([]float64, traces) {
			res := workload.MDTest(tb.env, tb.mounts, workload.MDTestOptions{
				Dir: "/md", FilesPerClient: files / clients,
			})
			return []float64{res.CreatePerSec, res.StatPerSec, res.UnlinkPerSec}, traces{}
		},
		claims: func(f *filled) {
			f.order("stat is where the bank helps (§5.2)", ratio(f, stat) > 1,
				"stat: the bank multiplies rate %.1fx over NoCache (creates pre-populate the stat keys)", ratio(f, stat))
			f.order("not much potential for cache based optimizations in create and unlink (§5.2)", near(ratio(f, create), 1) && near(ratio(f, unlink), 1),
				"create: %.2fx of NoCache; unlink: %.2fx (pass-through ops, purge bookkeeping only)", ratio(f, create), ratio(f, unlink))
		},
	}
}

// extBricks contrasts the two ways of scaling a GlusterFS deployment's
// read bandwidth: adding storage bricks (the §2.1 design: distribute the
// namespace over more servers) versus adding cache nodes in front of one
// server (the paper's proposal). Both multiply aggregate bandwidth; the
// bank does it without re-provisioning storage.
func extBricks(o Options) figure {
	fileSize := o.sized().stream
	return figure{
		name: "ext-bricks", title: "Extension: scaling by bricks vs scaling by cache nodes (read throughput)",
		x: "threads", y: "aggregate MB/s",
		rows: []int64{1, 2, 4, 8},
		systems: []system{
			glusterSys("1 brick", cluster.Options{Bricks: 1}),
			glusterSys("2 bricks", cluster.Options{Bricks: 2}),
			glusterSys("4 bricks", cluster.Options{Bricks: 4}),
			glusterSys("1 brick + 4 MCDs", cluster.Options{
				Bricks: 1, MCDs: 4, MCDMemBytes: o.sized().mcd, BlockSize: 2048,
			}),
		},
		cell: streamRead(fileSize, fileSize/16),
		claims: func(f *filled) {
			f.rising("cache nodes scale read bandwidth past what more bricks give, without new storage (§2.1)",
				f.end(), "1 brick", "4 bricks", "1 brick + 4 MCDs")
		},
	}
}
