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
	for ci := 0; ci < nc; ci++ {
		ci := ci
		tfs := gluster.Lift(mounts[ci])
		startClient(env, "mdtest", tfs, func(t *sim.Task) {
			var t0 sim.Time

			// Phase 3: unlink own files.
			phase3 := func() {
				bar.WaitT(t, func() {
					t0 = t.Now()
					var unlink func(i int)
					unlink = func(i int) {
						if i == n {
							if d := t.Now().Sub(t0); d > unlinkMax {
								unlinkMax = d
							}
							t.End()
							return
						}
						tfs.UnlinkT(t, FilePath(clientDir(ci), i), func(err error) {
							if err != nil {
								panic(fmt.Sprintf("workload: mdtest unlink: %v", err))
							}
							unlink(i + 1)
						})
					}
					unlink(0)
				})
			}

			// Phase 2: stat every file of every client.
			phase2 := func() {
				bar.WaitT(t, func() {
					t0 = t.Now()
					var stat func(j int)
					stat = func(j int) {
						if j == nc*n {
							if d := t.Now().Sub(t0); d > statMax {
								statMax = d
							}
							bar.WaitT(t, phase3)
							return
						}
						tfs.StatT(t, FilePath(clientDir(j/n), j%n), func(_ *gluster.Stat, err error) {
							if err != nil {
								panic(fmt.Sprintf("workload: mdtest stat: %v", err))
							}
							stat(j + 1)
						})
					}
					stat(0)
				})
			}

			// Phase 1: create.
			bar.WaitT(t, func() {
				t0 = t.Now()
				var create func(i int)
				create = func(i int) {
					if i == n {
						if d := t.Now().Sub(t0); d > createMax {
							createMax = d
						}
						bar.WaitT(t, phase2)
						return
					}
					tfs.CreateT(t, FilePath(clientDir(ci), i), func(fd gluster.FD, err error) {
						if err != nil {
							panic(fmt.Sprintf("workload: mdtest create: %v", err))
						}
						tfs.CloseT(t, fd, func(err error) {
							if err != nil {
								panic(err)
							}
							create(i + 1)
						})
					})
				}
				create(0)
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
