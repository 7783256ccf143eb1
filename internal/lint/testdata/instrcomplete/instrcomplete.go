// Package instrcomplete is an imcalint fixture: a duplicate instrument
// registration, a layer type with a full hot-path surface and no
// Register method, and a flight.Append with an ad-hoc kind — each next
// to its passing twin, plus one suppressed duplicate.
package instrcomplete

import (
	"imca/internal/flight"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// Wire registers prefix+".hits" twice: the second call panics the
// Registry at wiring time.
func Wire(reg *telemetry.Registry, prefix string, n func() uint64) {
	reg.Counter(prefix+".hits", n)
	reg.Counter(prefix+".hits", n)
	reg.Counter(prefix+".misses", n)
}

// WireAllowed carries the one suppressed duplicate.
func WireAllowed(reg *telemetry.Registry, n func() uint64) {
	reg.Counter("dup", n)
	reg.Counter("dup", n) //imcalint:allow instrcomplete fixture: deliberate duplicate, pinned by the suppress test
}

// Silent has a full hot-path operation surface and no Register method.
type Silent struct{}

// Read is a hot-path operation.
func (s *Silent) Read(p *sim.Proc) {}

// Write is a hot-path operation.
func (s *Silent) Write(p *sim.Proc) {}

// Stat is a hot-path operation.
func (s *Silent) Stat(p *sim.Proc) {}

// Wired has the same surface plus Register, so it passes.
type Wired struct{}

// Read is a hot-path operation.
func (w *Wired) Read(p *sim.Proc) {}

// Write is a hot-path operation.
func (w *Wired) Write(p *sim.Proc) {}

// Stat is a hot-path operation.
func (w *Wired) Stat(p *sim.Proc) {}

// Register exposes Wired's instruments.
func (w *Wired) Register(reg *telemetry.Registry, prefix string) {}

// Record appends one record with an ad-hoc kind — flagged — and one with
// a declared constant, which passes.
func Record(r *flight.Recorder, at sim.Time) {
	r.Append(at, flight.Kind(42), "actor", "note", 0)
	r.Append(at, flight.KindForward, "actor", "note", 0)
}

// ops is the calling convention Shim adapts.
type ops interface {
	ReadT(t *sim.Task)
}

// Shim has a full surface and no Register, but it is nothing except one
// interface value — an adapter between calling conventions with no state
// to report — so it is not flagged.
type Shim struct{ ops }

// Read adapts ReadT.
func (s Shim) Read(p *sim.Proc) {}

// Write adapts ReadT.
func (s Shim) Write(p *sim.Proc) {}

// Stat adapts ReadT.
func (s Shim) Stat(p *sim.Proc) {}
