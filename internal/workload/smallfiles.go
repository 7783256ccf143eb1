package workload

import (
	"fmt"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/xrand"
)

// SmallFilesOptions parameterizes the small-file access benchmark (the
// paper's §3 motivation: "In data-center environments a large number of
// small files are used" and striping does not help them).
type SmallFilesOptions struct {
	Dir string
	// Files in the working set and each file's size.
	Files    int
	FileSize int64
	// Accesses per client; files are chosen with a Zipf(1) popularity
	// distribution (few hot files, long tail), as web-object traces show.
	Accesses int
	// Reopen selects the access pattern: true = open/read/close per
	// access (classic web server); false = handles stay open. IMCa's
	// purge-on-open makes this distinction significant.
	Reopen bool
	// Seed makes the access sequence reproducible.
	Seed uint64
}

// SmallFilesResult reports the benchmark outcome.
type SmallFilesResult struct {
	// AvgAccess is the mean latency of one access (open+read+close or
	// just read, depending on Reopen).
	AvgAccess sim.Duration
}

// SmallFiles creates the working set through mounts[0], then has every
// client perform skewed random accesses. It returns the mean per-access
// latency across clients.
func SmallFiles(env *sim.Env, mounts []gluster.FS, opts SmallFilesOptions) SmallFilesResult {
	if opts.Files <= 0 || opts.FileSize <= 0 || opts.Accesses <= 0 {
		panic("workload: bad small-files geometry")
	}

	// Setup: create and fill the files, then close them.
	env.Process("smallfiles-setup", func(p *sim.Proc) {
		fs := mounts[0]
		for i := 0; i < opts.Files; i++ {
			fd, err := fs.Create(p, FilePath(opts.Dir, i))
			if err != nil {
				panic(fmt.Sprintf("workload: create: %v", err))
			}
			if _, err := fs.Write(p, fd, 0, blob.Synthetic(uint64(i)+1, 0, opts.FileSize)); err != nil {
				panic(fmt.Sprintf("workload: write: %v", err))
			}
			if err := fs.Close(p, fd); err != nil {
				panic(fmt.Sprintf("workload: close: %v", err))
			}
		}
	})
	env.Run()

	bar := sim.NewBarrier(env, len(mounts))
	var total sim.Duration
	for ci, fs := range mounts {
		env.Process("smallfiles", func(p *sim.Proc) {
			rng := xrand.New(opts.Seed + uint64(ci)*0x9e3779b97f4a7c15 + 1)
			zipf := xrand.NewZipf(rng, 1.0, opts.Files)
			open := make(map[int]gluster.FD)
			bar.Wait(p)
			t0 := p.Now()
			for a := 0; a < opts.Accesses; a++ {
				idx := zipf.Draw()
				fd, ok := open[idx]
				if !ok {
					var err error
					if fd, err = fs.Open(p, FilePath(opts.Dir, idx)); err != nil {
						panic(fmt.Sprintf("workload: small open: %v", err))
					}
					if !opts.Reopen {
						open[idx] = fd
					}
				}
				data, err := fs.Read(p, fd, 0, opts.FileSize)
				if err != nil || data.Len() != opts.FileSize {
					panic(fmt.Sprintf("workload: small read %d bytes, %v", data.Len(), err))
				}
				if opts.Reopen {
					if err := fs.Close(p, fd); err != nil {
						panic(fmt.Sprintf("workload: small close: %v", err))
					}
				}
			}
			total += p.Now().Sub(t0)
		})
	}
	env.Run()
	return SmallFilesResult{
		AvgAccess: total / sim.Duration(opts.Accesses*len(mounts)),
	}
}
