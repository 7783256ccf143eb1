package sim

// Event is a one-shot notification in virtual time. Processes wait on it;
// once triggered, all current and future waiters proceed immediately and
// receive the trigger value. Tasks wait with WaitT, receiving the value
// through a continuation instead of a resumed goroutine.
type Event struct {
	env       *Env
	triggered bool
	value     interface{}
	waiters   []eventWaiter
}

// eventWaiter is one parked process or one pending task continuation.
// Exactly one of p, fn, and fn0 is set. fn0 is the niladic variant used by
// pooled callers (see WaitFn): because it takes no value, Trigger can
// schedule it directly instead of wrapping it in a fresh closure.
type eventWaiter struct {
	p   *Proc
	fn  func(v interface{})
	fn0 func()
}

// NewEvent returns an untriggered event.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Value returns the value passed to Trigger, or nil before triggering.
func (ev *Event) Value() interface{} { return ev.value }

// Trigger fires the event, waking all waiters at the current instant.
// Triggering an already-triggered event is a no-op (the first value wins).
// It may be called from any process or from scheduler context. Each waiter
// costs one scheduled event, whether it is a process wake-up or a task
// continuation.
func (ev *Event) Trigger(v interface{}) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.value = v
	for i := range ev.waiters {
		w := &ev.waiters[i]
		switch {
		case w.p != nil:
			ev.env.scheduleProc(w.p, 0)
		case w.fn0 != nil:
			// Niladic continuations dispatch as-is: the owner reads
			// Value() itself, so no per-trigger closure is needed.
			ev.env.schedule(ev.env.now, nil, w.fn0)
		default:
			fn := w.fn
			ev.env.schedule(ev.env.now, nil, func() { fn(ev.value) })
		}
		*w = eventWaiter{}
	}
	// Keep the backing array: pooled events (see Reset) re-arm waiters
	// every reuse, and the cleared entries above drop all references.
	ev.waiters = ev.waiters[:0]
}

// Wait parks p until the event triggers and returns the trigger value. If
// the event has already triggered it returns immediately.
func (ev *Event) Wait(p *Proc) interface{} {
	if ev.triggered {
		return ev.value
	}
	ev.waiters = append(ev.waiters, eventWaiter{p: p})
	p.park()
	return ev.value
}

// WaitT arranges for k to receive the trigger value: immediately (inline,
// consuming no sequence number — mirroring Wait's already-triggered fast
// path) if the event has fired, otherwise when Trigger runs.
func (ev *Event) WaitT(t *Task, k func(v interface{})) {
	if ev.triggered {
		k(ev.value)
		return
	}
	ev.waiters = append(ev.waiters, eventWaiter{fn: k})
}

// WaitAll parks p until every event in evs has triggered.
func WaitAll(p *Proc, evs ...*Event) {
	for _, ev := range evs {
		ev.Wait(p)
	}
}

// WaitFn arranges for k to run when the event triggers. It is the pooled
// caller's WaitT: k takes no value (the owner reads Value itself), so the
// registration and the eventual dispatch allocate nothing — k is typically
// a method value bound once on a recycled frame. If the event has already
// triggered, k runs inline, consuming no sequence number, exactly like
// WaitT's fast path; otherwise Trigger schedules k directly (one event, as
// for any waiter).
func (ev *Event) WaitFn(k func()) {
	if ev.triggered {
		k()
		return
	}
	ev.waiters = append(ev.waiters, eventWaiter{fn0: k})
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
