package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The order contract against a reference model: whatever is scheduled, from
// wherever, runs in (at, seq) order — by instant, and within an instant in
// the order the kernel's schedule was called. The model needs no queue: it
// lists every schedule as it is made and stable-sorts the list by instant.
//
// A script is a byte string read as a sequence of choices (the fuzzer
// mutates it; the property test draws it from a seeded generator). Every
// event that runs logs itself and then makes a few more choices: Defer,
// Task.Sleep, Event.Trigger with several waiters, a Resource.Release chain,
// StartTask, or a Process that may sleep — with delays that sit on and
// around every boundary the queue has: the current instant (due), one
// nanosecond, nearHorizon−1 / nearHorizon / nearHorizon+1 (near against
// far), the exact instant of an event already pending in either heap, and
// the next tick boundary (the observer runs every nearHorizon) — so the
// three parts tie with one another, and with a tick, in every combination.

const tickID = -1

type delayClass uint8

const (
	classDue delayClass = iota
	classNear
	classFar
)

type scheduled struct {
	at    Time
	id    int
	class delayClass
}

type dispatched struct {
	now Time
	id  int // tickID for a tick boundary
}

type orderScript struct {
	data []byte // choices still to make; exhausted, it reads as zeros and the script winds down

	env *Env
	ctx *Task
	res *Resource
	// resBusy is set while a release chain is running on res; resQueue
	// holds its queued waiters' ids, assigned when Release schedules them.
	resBusy  bool
	resQueue []*int

	sched   []scheduled  // every kernel schedule, in call order
	log     []dispatched // everything that ran, in run order
	pending [3][]Time    // instants scheduled so far, by class, for ties
}

func (s *orderScript) choice(n int) int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

func (s *orderScript) delay() Duration {
	switch s.choice(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return Duration(1+s.choice(256)) * 100 * time.Nanosecond
	case 3:
		return nearHorizon - 1
	case 4:
		return nearHorizon
	case 5:
		return nearHorizon + 1
	case 6:
		return nearHorizon + Duration(1+s.choice(256))*10*time.Microsecond
	case 7:
		return s.tieWith(classNear)
	case 8:
		return s.tieWith(classFar)
	default: // to the next tick boundary: near, or far from a boundary itself
		return nearHorizon - Duration(int64(s.env.now)%int64(nearHorizon))
	}
}

// tieWith returns the delay to the instant of an event scheduled through
// class c and not yet in the past (zero when there is none).
func (s *orderScript) tieWith(c delayClass) Duration {
	live := s.pending[c][:0]
	for _, at := range s.pending[c] {
		if at >= s.env.now {
			live = append(live, at)
		}
	}
	s.pending[c] = live
	if len(live) == 0 {
		return 0
	}
	return live[s.choice(len(live))].Sub(s.env.now)
}

// expect records the schedule the caller is about to make, d from now, and
// returns the id the scheduled event must log.
func (s *orderScript) expect(d Duration) int {
	class := classFar
	switch {
	case d == 0:
		class = classDue
	case d < nearHorizon:
		class = classNear
	}
	id := len(s.sched)
	at := s.env.now.Add(d)
	s.sched = append(s.sched, scheduled{at: at, id: id, class: class})
	s.pending[class] = append(s.pending[class], at)
	return id
}

// fire is the body of every scripted event.
func (s *orderScript) fire(id int) {
	s.log = append(s.log, dispatched{now: s.env.now, id: id})
	s.act()
}

func (s *orderScript) act() {
	for n := s.choice(4); n > 0; n-- {
		s.action()
	}
}

func (s *orderScript) action() {
	switch s.choice(6) {
	case 0:
		d := s.delay()
		id := s.expect(d)
		s.env.Defer(d, func() { s.fire(id) })
	case 1:
		d := s.delay()
		id := s.expect(d)
		s.ctx.Sleep(d, func() { s.fire(id) })
	case 2: // Trigger schedules one event per waiter, in registration order.
		ev := NewEvent(s.env)
		for n := 1 + s.choice(3); n > 0; n-- {
			id := s.expect(0)
			ev.WaitFn(func() { s.fire(id) })
		}
		ev.Trigger(nil)
	case 3: // Each Release of the one unit schedules the next queued waiter.
		if s.resBusy {
			return
		}
		s.resBusy = true
		s.res.AcquireT(s.ctx, 1, func() {}) // free, so granted inline: no event
		for n := 1 + s.choice(3); n > 0; n-- {
			id := new(int)
			s.resQueue = append(s.resQueue, id)
			s.res.AcquireT(s.ctx, 1, func() {
				s.fire(*id)
				s.release()
			})
		}
		s.release()
	case 4:
		id := s.expect(0)
		s.env.StartTask("task", func(t *Task) {
			s.fire(id)
			t.End()
		})
	case 5: // A process: its start event, then perhaps one sleep's wake-up.
		id := s.expect(0)
		s.env.Process("proc", func(p *Proc) {
			s.fire(id)
			if s.choice(2) == 1 {
				d := s.delay()
				wake := s.expect(d)
				p.Sleep(d)
				s.fire(wake)
			}
		})
	}
}

func (s *orderScript) release() {
	if len(s.resQueue) > 0 {
		*s.resQueue[0] = s.expect(0)
		s.resQueue = s.resQueue[1:]
	} else {
		s.resBusy = false
	}
	s.res.Release(1)
}

// runOrderScript plays data as two successive Runs of one environment —
// each half scheduling first from outside Run, then from inside running
// events — and checks the whole dispatch log against the model. It returns
// how many tick boundaries coincided with a due, a near and a far event at
// once, so a caller can tell the hardest tie was reached.
func runOrderScript(t testing.TB, data []byte) (tripleTies int) {
	s := &orderScript{env: NewEnv()}
	s.ctx = s.env.ContextTask("script")
	s.res = NewResource(s.env, 1)
	s.env.SetTick(nearHorizon, func(at Time) { s.log = append(s.log, dispatched{now: at, id: tickID}) })
	for _, half := range [][]byte{data[:len(data)/2], data[len(data)/2:]} {
		s.data = half
		s.action()
		s.act()
		s.env.Run()
	}

	want := append([]scheduled(nil), s.sched...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	i, boundary := 0, Time(0)
	for pos, got := range s.log {
		if got.id == tickID {
			// A boundary fires once, in turn, after every earlier event
			// and before every event of its own instant, whichever part
			// of the queue that event waited in.
			boundary = boundary.Add(nearHorizon)
			if got.now != boundary {
				t.Fatalf("log[%d]: tick for %v, want boundary %v", pos, got.now, boundary)
			}
			if i > 0 && want[i-1].at >= boundary {
				t.Fatalf("log[%d]: tick %v fired after event %d of %v", pos, boundary, want[i-1].id, want[i-1].at)
			}
			if i == len(want) || want[i].at < boundary {
				t.Fatalf("log[%d]: tick %v fired with no event at or after it due next", pos, boundary)
			}
			continue
		}
		if i == len(want) {
			t.Fatalf("log[%d]: event %d ran but all %d scheduled events already had", pos, got.id, len(want))
		}
		if got.id != want[i].id || got.now != want[i].at {
			t.Fatalf("dispatch %d: event %d at %v, want event %d at %v", i, got.id, got.now, want[i].id, want[i].at)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%d events ran, %d were scheduled", i, len(want))
	}
	if s.env.EventsProcessed != uint64(len(want)) || s.env.seq != uint64(len(want)) {
		t.Fatalf("EventsProcessed %d, seq %d; want %d of each", s.env.EventsProcessed, s.env.seq, len(want))
	}
	if last := Time(int64(s.env.now) / int64(nearHorizon) * int64(nearHorizon)); boundary != last {
		t.Fatalf("last tick at %v, want %v (clock ended at %v)", boundary, last, s.env.now)
	}

	classesAt := map[Time]uint8{}
	for _, ev := range want {
		if ev.at > 0 && int64(ev.at)%int64(nearHorizon) == 0 {
			classesAt[ev.at] |= 1 << ev.class
		}
	}
	for _, classes := range classesAt {
		if classes == 1<<classDue|1<<classNear|1<<classFar {
			tripleTies++
		}
	}
	return tripleTies
}

// orderScriptBytes is the property test's script for one seed.
func orderScriptBytes(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64+rng.Intn(448))
	rng.Read(data)
	return data
}

func TestScheduleOrderMatchesReference(t *testing.T) {
	tripleTies := 0
	for seed := int64(1); seed <= 1000; seed++ {
		tripleTies += runOrderScript(t, orderScriptBytes(seed))
	}
	if tripleTies == 0 {
		t.Error("no script put a due, a near and a far event on one tick boundary: the hardest tie went unchecked")
	}
}

func FuzzScheduleOrder(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(orderScriptBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOrderScript(t, data) })
}
