package workload

import (
	"fmt"

	"imca/internal/gluster"
	"imca/internal/sim"
)

// MDTestOptions parameterizes the metadata-rate benchmark, modeled on the
// HPC community's mdtest: each client creates its own set of files, every
// client stats every file, then each client removes its own files, with
// barriers between phases. It extends the paper's stat benchmark (§5.2) to
// the full metadata life cycle.
type MDTestOptions struct {
	Dir string
	// FilesPerClient created (and later removed) by each client.
	FilesPerClient int
}

// MDTestResult reports aggregate operation rates (ops per second of
// virtual time) per phase.
type MDTestResult struct {
	CreatePerSec float64
	StatPerSec   float64
	UnlinkPerSec float64
}

// MDTest runs the three-phase metadata benchmark and returns aggregate
// rates. Each phase's rate divides total operations by the slowest
// client's phase time, as mdtest reports.
func MDTest(env *sim.Env, mounts []gluster.FS, opts MDTestOptions) MDTestResult {
	if opts.FilesPerClient <= 0 {
		panic("workload: mdtest needs files")
	}
	nc := len(mounts)
	n := opts.FilesPerClient

	clientDir := func(ci int) string { return fmt.Sprintf("%s/c%03d", opts.Dir, ci) }

	var createMax, statMax, unlinkMax sim.Duration
	bar := sim.NewBarrier(env, nc)
	for ci, fs := range mounts {
		env.Process("mdtest", func(p *sim.Proc) {
			// phase waits for every client, runs op ops times, and keeps the
			// slowest client's time in *slowest. A second barrier closes each
			// phase but the last.
			phase := func(slowest *sim.Duration, ops int, verb string, op func(i int) error) {
				bar.Wait(p)
				t0 := p.Now()
				for i := 0; i < ops; i++ {
					if err := op(i); err != nil {
						panic(fmt.Sprintf("workload: mdtest %s: %v", verb, err))
					}
				}
				*slowest = max(*slowest, p.Now().Sub(t0))
			}
			// Phase 1: create own files.
			phase(&createMax, n, "create", func(i int) error {
				fd, err := fs.Create(p, FilePath(clientDir(ci), i))
				if err != nil {
					return err
				}
				return fs.Close(p, fd)
			})
			bar.Wait(p)
			// Phase 2: stat every file of every client.
			phase(&statMax, nc*n, "stat", func(j int) error {
				_, err := fs.Stat(p, FilePath(clientDir(j/n), j%n))
				return err
			})
			bar.Wait(p)
			// Phase 3: unlink own files.
			phase(&unlinkMax, n, "unlink", func(i int) error {
				return fs.Unlink(p, FilePath(clientDir(ci), i))
			})
		})
	}
	env.Run()

	rate := func(ops int, d sim.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(ops) / (float64(d) / 1e9)
	}
	return MDTestResult{
		CreatePerSec: rate(nc*n, createMax),
		StatPerSec:   rate(nc*nc*n, statMax),
		UnlinkPerSec: rate(nc*n, unlinkMax),
	}
}
