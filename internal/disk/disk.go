// Package disk models rotating storage: a single disk with seek and
// sequential-transfer costs, and RAID-0 arrays that stripe requests across
// member disks.
//
// Addresses are abstract byte offsets in a flat device space; callers (the
// file-system layers) map files onto that space. The model captures the two
// properties the reproduced experiments depend on: sequential streams run at
// the platter transfer rate, and interleaved streams from many clients
// degrade to seek-bound throughput.
package disk

import (
	"time"

	"imca/internal/sim"
)

// Params describes a disk's first-order performance model.
type Params struct {
	// SeekTime is the average positioning cost (seek + rotational delay)
	// paid when an access does not continue the previous one.
	SeekTime sim.Duration
	// TransferRate is the sustained media rate in bytes/second.
	TransferRate float64
}

// HighPoint2008 approximates one disk of the paper's 8-disk HighPoint RAID
// array (7200rpm SATA of the period).
var HighPoint2008 = Params{SeekTime: 8 * time.Millisecond, TransferRate: 70e6}

// The paper's server array: HighPointDisks HighPoint2008 disks striped in
// HighPointStripe chunks, which keep a sequential stream sequential on each
// member. NewHighPoint builds it, or a smaller array of the same disks.
const (
	HighPointDisks        = 8
	HighPointStripe int64 = 1 << 20
)

// Device is anything that can serve byte-addressed accesses in virtual
// time, in continuation style.
type Device interface {
	// AccessT performs a read or write of size bytes at addr and runs k
	// when the simulated transfer completes.
	AccessT(t *sim.Task, addr, size int64, write bool, k func())
}

var (
	_ Device = (*Disk)(nil)
	_ Device = (*Array)(nil)
)

// Disk is a single spindle. Concurrent requests queue FIFO at the arm.
type Disk struct {
	env     *sim.Env
	params  Params
	arm     *sim.Resource
	lastEnd int64
	// slow stretches every access by this factor when > 1 (a degrading
	// spindle; see SetSlowdown). Zero or one means healthy, and the cost
	// computation is untouched.
	slow float64

	// ops is the free list of request frames; see diskOp.
	ops sim.Free[diskOp]

	// Stats
	Reads, Writes uint64
	Seeks         uint64
	BytesRead     int64
	BytesWritten  int64
}

// New returns a disk with the given parameters.
func New(env *sim.Env, params Params) *Disk {
	if params.TransferRate <= 0 {
		panic("disk: non-positive transfer rate")
	}
	return &Disk{env: env, params: params, arm: sim.NewResource(env, 1), lastEnd: -1}
}

// AccessT implements Device: requests queue FIFO at the arm, pay a
// seek unless they continue the previous access, then transfer.
func (d *Disk) AccessT(t *sim.Task, addr, size int64, write bool, k func()) {
	if size < 0 || addr < 0 {
		panic("disk: negative access")
	}
	op := d.ops.Pop()
	if op == nil {
		op = &diskOp{d: d}
		op.fnGranted, op.fnDone = op.granted, op.done
	}
	op.t, op.addr, op.size, op.write, op.k = t, addr, size, write, k
	d.arm.AcquireT(t, 1, op.fnGranted)
}

// diskOp is one access at the spindle as a pooled frame with prebound
// continuations, so a disk access allocates nothing. The frame returns to
// the pool before k runs.
type diskOp struct {
	d          *Disk
	t          *sim.Task
	addr, size int64
	write      bool
	k          func()

	fnGranted, fnDone func()
}

// granted holds the arm for the access. Cost is computed at grant time:
// lastEnd reflects the request served before this one, not the one ahead
// in the queue when we arrived.
func (op *diskOp) granted() {
	d := op.d
	cost := sim.Duration(0)
	if op.addr != d.lastEnd {
		cost += d.params.SeekTime
		d.Seeks++
	}
	cost += sim.Duration(float64(op.size) / d.params.TransferRate * 1e9)
	if d.slow > 1 {
		cost = sim.Duration(float64(cost) * d.slow)
	}
	d.lastEnd = op.addr + op.size
	op.t.Sleep(cost, op.fnDone)
}

func (op *diskOp) done() {
	d := op.d
	d.arm.Release(1)
	if op.write {
		d.Writes++
		d.BytesWritten += op.size
	} else {
		d.Reads++
		d.BytesRead += op.size
	}
	k := op.k
	op.t, op.k = nil, nil
	d.ops.Push(op)
	k()
}

// Utilization returns the fraction of virtual time the arm has been busy.
func (d *Disk) Utilization() float64 { return d.arm.Utilization() }

// SetSlowdown stretches every access by factor (a failing or rebuilding
// spindle serving at reduced speed). Factor 1 restores full health;
// factors below 1 are rejected — this models degradation, not upgrades.
func (d *Disk) SetSlowdown(factor float64) {
	if factor < 1 {
		panic("disk: slowdown factor below 1")
	}
	d.slow = factor
}

// Slowdown returns the current slowdown factor (1 when healthy).
func (d *Disk) Slowdown() float64 {
	if d.slow > 1 {
		return d.slow
	}
	return 1
}

// Array is a RAID-0 stripe set over identical member disks. A request is
// split at stripe boundaries and the chunks proceed on their member disks
// in parallel; the request completes when the slowest chunk does.
type Array struct {
	env        *sim.Env
	disks      []*Disk
	stripeSize int64

	// ops is the free list of striped-request frames; see arrayOp.
	ops sim.Free[arrayOp]
}

// NewArray builds a RAID-0 array of n disks with the given stripe size.
func NewArray(env *sim.Env, n int, stripeSize int64, params Params) *Array {
	if n <= 0 || stripeSize <= 0 {
		panic("disk: bad array geometry")
	}
	a := &Array{env: env, stripeSize: stripeSize}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, New(env, params))
	}
	return a
}

// NewHighPoint builds a RAID-0 array of n HighPoint2008 disks striped in
// HighPointStripe chunks; n = HighPointDisks is the paper's server array.
func NewHighPoint(env *sim.Env, n int) *Array {
	return NewArray(env, n, HighPointStripe, HighPoint2008)
}

// Disks exposes the member disks (for stats).
func (a *Array) Disks() []*Disk { return a.disks }

// SetSlowdown stretches every member disk's accesses by factor (1
// restores full speed) — RAID-0 has no redundancy, so one slow member
// slows the whole array; the fault injector degrades all of them.
func (a *Array) SetSlowdown(factor float64) {
	for _, d := range a.disks {
		d.SetSlowdown(factor)
	}
}

// chunk is one stripe-aligned piece of a request mapped to a member disk.
type chunk struct {
	member     int
	addr, size int64
}

// chunkAt maps the first stripe-aligned piece of [addr, addr+size).
func (a *Array) chunkAt(addr, size int64) chunk {
	n := int64(len(a.disks))
	stripe := addr / a.stripeSize
	within := addr % a.stripeSize
	return chunk{
		member: int(stripe % n),
		addr:   (stripe/n)*a.stripeSize + within,
		size:   min(a.stripeSize-within, size),
	}
}

// AccessT implements Device, striping the request across members. A
// request within one stripe is that member's access; a longer one runs
// on an arrayOp.
func (a *Array) AccessT(t *sim.Task, addr, size int64, write bool, k func()) {
	if size <= 0 {
		if size < 0 {
			panic("disk: negative access")
		}
		k()
		return
	}
	if addr < 0 {
		panic("disk: negative access")
	}
	if c := a.chunkAt(addr, size); c.size == size {
		a.disks[c.member].AccessT(t, c.addr, c.size, write, k)
		return
	}
	op := a.ops.Pop()
	if op == nil {
		op = a.newOp()
	}
	op.run(t, addr, size, write, k)
}

// arrayOp is one striped request as a pooled frame. Each member it maps
// to serves its share as one access on the caller's task (a disk access
// uses its task only to acquire the arm and to sleep), and the request
// completes when the last member has.
//
// The frame replays the event stream of one helper task per member
// joined by waiting on each helper's Done event in disk order: a member
// starts one event after the request (StartTask's first slice); the
// member the join waits on costs one event when it finishes (Trigger of
// its one waiter); members already finished by then are passed inline
// (WaitFn on a triggered event). The frame returns to the pool before k
// runs.
type arrayOp struct {
	a     *Array
	t     *sim.Task
	write bool
	k     func()

	members []member // indexed by member disk
	started int      // the member the next start serves
	waiting int      // the member the join waits on; len(members) at the end

	fnStart, fnJoin func()
}

// member is one member disk's share of an arrayOp.
type member struct {
	// run is the request's chunks on this member, coalesced, so a long
	// sequential request costs one seek per disk, not one per stripe. A
	// member's chunks of one request are always contiguous in its address
	// space: after the first, each starts a stripe row where the last one
	// ended. Size 0 means the request does not reach the member.
	run    chunk
	done   bool
	fnDone func() // memberDone bound to this member
}

func (a *Array) newOp() *arrayOp {
	op := &arrayOp{a: a, members: make([]member, len(a.disks))}
	for i := range op.members {
		op.members[i].fnDone = func() { op.memberDone(i) }
	}
	op.fnStart, op.fnJoin = op.start, op.join
	return op
}

func (op *arrayOp) run(t *sim.Task, addr, size int64, write bool, k func()) {
	op.t, op.write, op.k = t, write, k
	for i := range op.members {
		op.members[i].run, op.members[i].done = chunk{}, false
	}
	for size > 0 {
		c := op.a.chunkAt(addr, size)
		if r := &op.members[c.member].run; r.size == 0 {
			*r = c
		} else {
			r.size += c.size
		}
		addr += c.size
		size -= c.size
	}
	op.started = op.next(-1)
	op.waiting = op.started
	for m := op.started; m < len(op.members); m = op.next(m) {
		op.a.env.Defer(0, op.fnStart)
	}
}

// next returns the first member after m that the request reaches, or
// len(members).
func (op *arrayOp) next(m int) int {
	for m++; m < len(op.members) && op.members[m].run.size == 0; m++ {
	}
	return m
}

// start begins the next member's access; the starts were scheduled in
// disk order, one per member.
func (op *arrayOp) start() {
	m := &op.members[op.started]
	d := op.a.disks[op.started]
	op.started = op.next(op.started)
	d.AccessT(op.t, m.run.addr, m.run.size, op.write, m.fnDone)
}

// memberDone records member m's completion and, if the join waits on m,
// schedules the join's next step.
func (op *arrayOp) memberDone(m int) {
	op.members[m].done = true
	if m == op.waiting {
		op.a.env.Defer(0, op.fnJoin)
	}
}

// join passes the members that have already finished and waits on the
// first that has not, or completes the request.
func (op *arrayOp) join() {
	m := op.next(op.waiting)
	for m < len(op.members) && op.members[m].done {
		m = op.next(m)
	}
	op.waiting = m
	if m < len(op.members) {
		return
	}
	k := op.k
	op.t, op.k = nil, nil
	op.a.ops.Push(op)
	k()
}
