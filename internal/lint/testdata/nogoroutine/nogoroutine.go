// Package nogoroutine is an imcalint fixture: native concurrency in a
// package configured as pure-sim.
package nogoroutine

import (
	"iter"
	"sync"

	"imca/internal/flight"
	"imca/internal/sim"
)

// Guard is a lock where no second goroutine should exist.
var Guard sync.Mutex

// Fire spawns a goroutine and talks to it over a native channel.
func Fire() int {
	ch := make(chan int, 1)
	go send(ch)
	return <-ch
}

func send(ch chan int) {
	ch <- 1
}

// ArmFault mimics the fault injector: the deferred callback runs later in
// scheduler context — sim-side code, not a host-side exemption — so native
// concurrency inside it is flagged exactly as it would be anywhere else.
func ArmFault(env *sim.Env) {
	env.Defer(5, func() {
		go send(make(chan int, 1))
	})
}

// RecordAsync mimics an instrumented layer gone wrong: flight appends are
// inline ring writes on the sim thread, never offloaded to a goroutine —
// the recorder is unsynchronized and the append order is the determinism
// contract.
func RecordAsync(rec *flight.Recorder, at sim.Time) {
	go rec.Append(at, flight.KindProbe, "async", "bad", 0)
}

// Drain pulls values from a coroutine of its own: iter.Pull starts a
// goroutine the kernel does not schedule, exactly as a go statement would.
// Ranging over the same sequence runs on the caller's stack and is fine.
func Drain(seq iter.Seq[int], pairs iter.Seq2[int, int]) int {
	next, stop := iter.Pull(seq)
	defer stop()
	next2, stop2 := iter.Pull2[int, int](pairs)
	defer stop2()
	sum, _ := next()
	k, v, _ := next2()
	for x := range seq {
		sum += x
	}
	return sum + k + v
}
