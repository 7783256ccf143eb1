package sim

import (
	"math/rand"
	"slices"
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
// Four more choices aim at near's delay lanes: reuse a recent near delay
// (a lane append); a new delay in the slot, or the slot after it, of one
// still pending (second choice, then near on its own); a burst of distinct
// delays, one per slot and then some, so every lane is busy at once; and a
// new delay in the slot of one whose events have all run (a drained lane
// re-keyed). Each of those paths is counted as the kernel takes it.

const tickID = -1

type delayClass uint8

const (
	classDue delayClass = iota
	classNear
	classFar
)

type scheduled struct {
	at    Time
	d     Duration
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

	// The near delays in play: how many events of each are pending, the
	// last few scheduled, and the last few whose events have all run.
	nearPending map[Duration]int
	recentNear  []Duration
	drainedNear []Duration

	cover   coverage
	keyedTo [nLanes]Duration // the delay each lane was last opened for
}

// coverage counts the hardest cases a script reached: tick boundaries
// where a due, a near and a far event tie, and each path a near schedule
// can take through the lane table.
type coverage struct {
	tripleTies int
	appends    int // joined a busy lane of its delay
	second     int // filed in the slot after its own
	alone      int // both slots busy with other delays: near on its own
	rekeys     int // opened a drained lane last opened for another delay
	full       int // scheduled while every lane was busy
}

func (c *coverage) add(o coverage) {
	c.tripleTies += o.tripleTies
	c.appends += o.appends
	c.second += o.second
	c.alone += o.alone
	c.rekeys += o.rekeys
	c.full += o.full
}

// countLanePath records which path the schedule of a near delay d about to
// be made takes through the lane table.
func (s *orderScript) countLanePath(d Duration) {
	e, c := s.env, &s.cover
	if !slices.Contains(e.laneDelay[:], 0) {
		c.full++
	}
	i := e.laneOf(d)
	switch {
	case i < 0:
		c.alone++
		return
	case e.laneDelay[i] == d:
		c.appends++
	default:
		if s.keyedTo[i] != 0 && s.keyedTo[i] != d {
			c.rekeys++
		}
		s.keyedTo[i] = d
	}
	if i != laneSlot(d) {
		c.second++
	}
}

// delayInSlot returns the first near delay from from upward, wrapping
// below nearHorizon, that is not not and hashes to slot (mod nLanes).
func delayInSlot(slot int, from, not Duration) Duration {
	for d := from; ; d++ {
		if d <= 0 || d >= nearHorizon {
			d = 1
		}
		if d != not && laneSlot(d) == slot%nLanes {
			return d
		}
	}
}

// lastFew appends d to list, keeping the eight most recent.
func lastFew(list []Duration, d Duration) []Duration {
	if len(list) == 8 {
		list = list[1:]
	}
	return append(list, d)
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
	switch s.choice(14) {
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
	case 9: // to the next tick boundary: near, or far from a boundary itself
		return nearHorizon - Duration(int64(s.env.now)%int64(nearHorizon))
	case 10: // a recent near delay, whose events may still be pending
		return s.pick(s.recentNear)
	case 11: // a new delay in a recent one's slot, or the one after it
		d := s.pick(s.recentNear)
		return delayInSlot(laneSlot(d)+s.choice(2), d+1, d)
	case 12: // a new delay in the slot of one whose events have all run
		d := s.pick(s.drainedNear)
		return delayInSlot(laneSlot(d), d+1, d)
	default: // every slot taken at once: one delay per slot, then a few more
		from := Duration(1+s.choice(256)) * 100 * time.Nanosecond
		for slot := 0; slot < nLanes+8; slot++ {
			d := delayInSlot(slot, from+Duration(slot/nLanes)*nearHorizon/2, 0)
			id := s.expect(d)
			s.env.Defer(d, func() { s.mark(id) })
		}
		return delayInSlot(s.choice(nLanes), from, 0)
	}
}

// pick returns one of list's delays, or one nanosecond when it is empty.
func (s *orderScript) pick(list []Duration) Duration {
	if len(list) == 0 {
		return 1
	}
	return list[s.choice(len(list))]
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
	s.sched = append(s.sched, scheduled{at: at, d: d, id: id, class: class})
	s.pending[class] = append(s.pending[class], at)
	if class == classNear {
		s.countLanePath(d)
		s.nearPending[d]++
		s.recentNear = lastFew(s.recentNear, d)
	}
	return id
}

// fire is the body of every scripted event.
func (s *orderScript) fire(id int) {
	s.mark(id)
	s.act()
}

// mark logs that event id ran, and nothing more.
func (s *orderScript) mark(id int) {
	s.log = append(s.log, dispatched{now: s.env.now, id: id})
	if ev := s.sched[id]; ev.class == classNear {
		if s.nearPending[ev.d]--; s.nearPending[ev.d] == 0 {
			s.drainedNear = lastFew(s.drainedNear, ev.d)
		}
	}
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
// what the script covered, so a caller can tell the hardest cases were
// reached.
func runOrderScript(t testing.TB, data []byte) coverage {
	s := &orderScript{env: NewEnv(), nearPending: map[Duration]int{}}
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
			s.cover.tripleTies++
		}
	}
	return s.cover
}

// orderScriptBytes is the property test's script for one seed.
func orderScriptBytes(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64+rng.Intn(448))
	rng.Read(data)
	return data
}

func TestScheduleOrderMatchesReference(t *testing.T) {
	var c coverage
	for seed := int64(1); seed <= 1000; seed++ {
		c.add(runOrderScript(t, orderScriptBytes(seed)))
	}
	t.Logf("coverage over 1,000 scripts: %+v", c)
	for _, miss := range []struct {
		n    int
		what string
	}{
		{c.tripleTies, "put a due, a near and a far event on one tick boundary"},
		{c.appends, "appended to a busy lane"},
		{c.second, "filed a delay in the slot after its own"},
		{c.alone, "left a near event out of the lanes, both its slots busy"},
		{c.rekeys, "re-keyed a drained lane to another delay"},
		{c.full, "scheduled with every lane busy"},
	} {
		if miss.n == 0 {
			t.Errorf("no script %s: that case went unchecked", miss.what)
		}
	}
}

func FuzzScheduleOrder(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(orderScriptBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOrderScript(t, data) })
}
