package sim

// Event is a one-shot notification in virtual time: once triggered, all
// current and future waiters proceed immediately and can read the trigger
// value with Value.
type Event struct {
	env       *Env
	triggered bool
	value     interface{}
	waiters   []func()
}

// NewEvent returns an untriggered event.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Value returns the value passed to Trigger, or nil before triggering.
func (ev *Event) Value() interface{} { return ev.value }

// Trigger fires the event, scheduling every waiter at the current instant
// (one event each). Triggering an already-triggered event is a no-op (the
// first value wins). It may be called from any process or from scheduler
// context.
func (ev *Event) Trigger(v interface{}) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.value = v
	for i, k := range ev.waiters {
		ev.env.schedule(0, k)
		ev.waiters[i] = nil
	}
	// Keep the backing array: pooled events (see Reset) re-arm waiters
	// every reuse, and the cleared entries above drop all references.
	ev.waiters = ev.waiters[:0]
}

// Wait parks p until the event triggers. If the event has already
// triggered it returns immediately.
func (ev *Event) Wait(p *Proc) {
	p.Await(func(t *Task) { ev.WaitFn(t.front.fnEnd) })
}

// WaitFn arranges for k to run when the event triggers. k takes no value
// (the owner reads Value itself), so the registration and the eventual
// dispatch allocate nothing — k is typically a method value bound once on
// a recycled frame. If the event has already triggered, k runs inline,
// consuming no sequence number; otherwise Trigger schedules k directly.
func (ev *Event) WaitFn(k func()) {
	if ev.triggered {
		k()
		return
	}
	ev.waiters = append(ev.waiters, k)
}

// Reset returns a triggered (or idle) event to its untriggered state so an
// owning pool can reuse it. Resetting with waiters still registered would
// strand them, so it panics; owners reset only after every side of the
// exchange has finished with the event.
func (ev *Event) Reset() {
	if len(ev.waiters) != 0 {
		panic("sim: Reset of an event with pending waiters")
	}
	ev.triggered = false
	ev.value = nil
}
