package sim_test

import (
	"fmt"
	"time"

	"imca/internal/sim"
)

// Two processes meet at a virtual-time event; the whole exchange takes
// exactly the modeled durations, not wall time.
func Example() {
	env := sim.NewEnv()
	ready := sim.NewEvent(env)

	env.Process("producer", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond) // modeled work
		ready.Trigger("payload")
	})
	env.Process("consumer", func(p *sim.Proc) {
		ready.Wait(p)
		fmt.Printf("received %q at t=%v\n", ready.Value(), sim.Duration(p.Now()))
	})

	env.Run()
	// Output: received "payload" at t=3ms
}

// A resource models contended hardware: three jobs on a two-unit server.
func ExampleResource() {
	env := sim.NewEnv()
	server := sim.NewResource(env, 2)
	for i := 0; i < 3; i++ {
		i := i
		env.Process("job", func(p *sim.Proc) {
			server.Use(p, 10*time.Millisecond)
			fmt.Printf("job %d done at %v\n", i, sim.Duration(p.Now()))
		})
	}
	env.Run()
	// Output:
	// job 0 done at 10ms
	// job 1 done at 10ms
	// job 2 done at 20ms
}
