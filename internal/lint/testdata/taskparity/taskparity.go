// Package taskparity is an imcalint fixture: a task-ready type with a
// missing *T sibling, a sibling whose schedule consumption diverges, a
// sibling with the wrong actor, and one suppressed gap. NotReady pins
// that types without task methods stay out of scope. Upper pins the two
// ways the walk sees through pooled operation frames: prebound method
// values are followed, and a lower layer's sibling pair is one primitive.
package taskparity

import (
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Layer is task-ready: SetT takes a *sim.Task.
type Layer struct{}

// Get has no GetT sibling.
func (l *Layer) Get(p *sim.Proc) { p.Sleep(1) }

// Put sleeps; PutT does not, so their schedule sets diverge.
func (l *Layer) Put(p *sim.Proc) { p.Sleep(1) }

// PutT never reaches Sleep.
func (l *Layer) PutT(t *sim.Task, k func()) { k() }

// Del's sibling takes the wrong actor.
func (l *Layer) Del(p *sim.Proc) {}

// DelT is not a continuation: its first parameter is a *sim.Proc.
func (l *Layer) DelT(p *sim.Proc) {}

// Stat's missing sibling is an accepted, suppressed gap.
//
//imcalint:allow taskparity fixture: deliberate missing sibling, pinned by the suppress test
func (l *Layer) Stat(p *sim.Proc) {}

// SetT makes Layer task-ready.
func (l *Layer) SetT(t *sim.Task, k func()) { t.Sleep(1, k) }

// Set matches SetT: both reach Sleep (Proc.Sleep ≡ Task.Sleep after
// normalization), so no finding.
func (l *Layer) Set(p *sim.Proc) { p.Sleep(1) }

// Register keeps this fixture out of instrcomplete's surface rule — the
// fixture pins taskparity findings only.
func (l *Layer) Register(reg *telemetry.Registry, prefix string) {}

// frame is a pooled operation frame: its continuation is bound once, as a
// method value, by the constructor.
type frame struct {
	t      *sim.Task
	k      func()
	fnDone func()
}

func newFrame() *frame {
	f := &frame{}
	f.fnDone = f.done
	return f
}

func (f *frame) done() { f.t.Sleep(1, f.k) }

// Upper sits on Layer.
type Upper struct{ l *Layer }

// Op sleeps, then runs the layer below.
func (u *Upper) Op(p *sim.Proc) {
	p.Sleep(1)
	u.l.Set(p)
}

// OpT matches Op: its Sleep is reached through the frame's prebound method
// value, and Layer.SetT is Layer.Set's sibling, so no finding.
func (u *Upper) OpT(t *sim.Task, k func()) {
	f := newFrame()
	f.t, f.k = t, k
	u.l.SetT(t, f.fnDone)
}

// Skip calls a divergent pair below on both engines: the divergence is
// Layer.Put's finding, not repeated here. SkipT never calls Layer.SetT,
// and that is Skip's own finding.
func (u *Upper) Skip(p *sim.Proc) {
	u.l.Put(p)
	u.l.Set(p)
}

// SkipT drops the Set leg.
func (u *Upper) SkipT(t *sim.Task, k func()) { u.l.PutT(t, k) }

// Register: see Layer.Register.
func (u *Upper) Register(reg *telemetry.Registry, prefix string) {}

// NotReady has blocking methods but no task methods: out of scope until
// it grows one.
type NotReady struct{}

// Get on a non-task-ready type needs no sibling.
func (n *NotReady) Get(p *sim.Proc) { p.Sleep(1) }
