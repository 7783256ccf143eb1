// Package tickpurity is an imcalint fixture: tick observers that reach
// scheduling calls, directly and through a helper chain.
package tickpurity

import (
	"imca/internal/flight"
	"imca/internal/metrics"
	"imca/internal/sim"
)

// Install hooks a literal observer that schedules a process.
func Install(env *sim.Env) {
	env.SetTick(1000, func(at sim.Time) {
		env.Process("sample", func(p *sim.Proc) {})
	})
	env.SetTick(1000, observe)
}

// observe looks pure but reaches a scheduling call through helper.
func observe(at sim.Time) { helper() }

func helper() {
	env := sim.NewEnv()
	done := sim.NewEvent(env)
	done.Trigger(nil)
}

// InstallPure hooks a well-behaved read-only observer.
func InstallPure(env *sim.Env) {
	var last sim.Time
	env.SetTick(1000, func(at sim.Time) { last = at })
	_ = last
}

// InstallArmed hooks an observer that arms a deferred fault mid-sample.
// Defer inserts a timer into the event heap, so reaching it from a tick
// observer is flagged like any other scheduling call.
func InstallArmed(env *sim.Env) {
	env.SetTick(1000, func(at sim.Time) {
		env.Defer(5, func() {})
	})
}

// InstallTask hooks an observer that starts a continuation task. The task
// engine's entry points schedule heap events exactly like process ones, so
// a tick observer may not touch them either.
func InstallTask(env *sim.Env) {
	env.SetTick(1000, func(at sim.Time) {
		env.StartTask("sample", func(t *sim.Task) {
			t.End()
		})
	})
}

// ArmFault mimics the fault injector: Defer called from host context
// between runs is fine, and the callback it arms runs in scheduler
// context, where triggering events and spawning processes is legal.
// Nothing here is reachable from a tick observer, so nothing is flagged.
func ArmFault(env *sim.Env) {
	ev := sim.NewEvent(env)
	env.Defer(5, func() {
		ev.Trigger(nil)
		env.Process("recover", func(p *sim.Proc) {})
	})
}

// InstallInstrumented hooks the shape every instrumented layer uses: a
// tick observer that observes into a hist and appends a flight record.
// Both are pure memory writes that schedule nothing, so the walk reaches
// into metrics and flight and flags nothing.
func InstallInstrumented(env *sim.Env, h *metrics.Histogram, rec *flight.Recorder) {
	env.SetTick(1000, func(at sim.Time) {
		h.Observe(0)
		rec.Append(at, flight.KindProbe, "sampler", "tick", 0)
	})
}

// InstallMixed hooks an observer whose helper observes and then schedules:
// the observe is legal, but the Process call two hops down the chain is
// flagged like a direct one.
func InstallMixed(env *sim.Env, h *metrics.Histogram) {
	env.SetTick(1000, func(at sim.Time) {
		observeAndSchedule(env, h)
	})
}

func observeAndSchedule(env *sim.Env, h *metrics.Histogram) {
	h.Observe(0)
	env.Process("drain", func(p *sim.Proc) {})
}

// InstallAwait hooks an observer that drives a blocking API from its
// sample: Await parks the calling process and Block wakes one, and a tick
// observer runs with no process to park — reaching either is flagged, like
// the End that completes the Await.
func InstallAwait(env *sim.Env, p *sim.Proc) {
	env.SetTick(1000, func(at sim.Time) {
		awaitNothing(p)
	})
}

func awaitNothing(p *sim.Proc) {
	p.Await(func(t *sim.Task) {
		t.Block(func(*sim.Proc) {}, t.End)
	})
}
