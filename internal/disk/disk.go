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
// time. The access path is written once, in continuation style; the
// blocking Access is derived from AccessT (see access).
type Device interface {
	// Access performs a read or write of size bytes at addr, blocking p
	// for the simulated duration.
	Access(p *sim.Proc, addr, size int64, write bool)
	// AccessT performs a read or write of size bytes at addr and runs k
	// when the simulated transfer completes.
	AccessT(t *sim.Task, addr, size int64, write bool, k func())
}

var (
	_ Device = (*Disk)(nil)
	_ Device = (*Array)(nil)
)

// access is the blocking face of a Device: the process awaits AccessT.
func access(p *sim.Proc, dev Device, addr, size int64, write bool) {
	p.Await(func(t *sim.Task) { dev.AccessT(t, addr, size, write, t.End) })
}

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
	ops []*diskOp

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

// Access implements Device.
func (d *Disk) Access(p *sim.Proc, addr, size int64, write bool) { access(p, d, addr, size, write) }

// AccessT implements Device: requests queue FIFO at the arm, pay a
// seek unless they continue the previous access, then transfer.
func (d *Disk) AccessT(t *sim.Task, addr, size int64, write bool, k func()) {
	op := d.takeOp()
	op.one[0] = chunk{addr: addr, size: size}
	op.run(t, op.one[:], write, k)
}

// diskOp is one request at the spindle — a single access, or the run of
// chunks a striped request maps to this member, served in order — as a
// pooled frame with prebound continuations, so a disk access allocates
// nothing. The frame returns to the pool before k runs.
type diskOp struct {
	d      *Disk
	t      *sim.Task
	chunks []chunk
	one    [1]chunk // AccessT's single chunk
	i      int
	write  bool
	k      func()

	fnGranted, fnDone func()
}

func (d *Disk) takeOp() *diskOp {
	if n := len(d.ops); n > 0 {
		op := d.ops[n-1]
		d.ops = d.ops[:n-1]
		return op
	}
	op := &diskOp{d: d}
	op.fnGranted, op.fnDone = op.granted, op.done
	return op
}

func (op *diskOp) run(t *sim.Task, chunks []chunk, write bool, k func()) {
	op.t, op.chunks, op.i, op.write, op.k = t, chunks, 0, write, k
	op.next()
}

// next queues the op's next chunk at the arm, or completes the op.
func (op *diskOp) next() {
	if op.i == len(op.chunks) {
		k := op.k
		op.t, op.chunks, op.k = nil, nil, nil
		op.d.ops = append(op.d.ops, op)
		k()
		return
	}
	if c := op.chunks[op.i]; c.size < 0 || c.addr < 0 {
		panic("disk: negative access")
	}
	op.d.arm.AcquireT(op.t, 1, op.fnGranted)
}

// granted holds the arm for the access. Cost is computed at grant time:
// lastEnd reflects the request served before this one, not the one ahead
// in the queue when we arrived.
func (op *diskOp) granted() {
	d, c := op.d, op.chunks[op.i]
	cost := sim.Duration(0)
	if c.addr != d.lastEnd {
		cost += d.params.SeekTime
		d.Seeks++
	}
	cost += sim.Duration(float64(c.size) / d.params.TransferRate * 1e9)
	if d.slow > 1 {
		cost = sim.Duration(float64(cost) * d.slow)
	}
	d.lastEnd = c.addr + c.size
	op.t.Sleep(cost, op.fnDone)
}

func (op *diskOp) done() {
	d, c := op.d, op.chunks[op.i]
	d.arm.Release(1)
	if op.write {
		d.Writes++
		d.BytesWritten += c.size
	} else {
		d.Reads++
		d.BytesRead += c.size
	}
	op.i++
	op.next()
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
	disk       *Disk
	addr, size int64
}

// mapRequest splits [addr, addr+size) into per-disk chunks, appended to out
// (the caller's scratch).
func (a *Array) mapRequest(out []chunk, addr, size int64) []chunk {
	n := int64(len(a.disks))
	for size > 0 {
		stripe := addr / a.stripeSize
		within := addr % a.stripeSize
		take := a.stripeSize - within
		if take > size {
			take = size
		}
		member := stripe % n
		memberAddr := (stripe/n)*a.stripeSize + within
		out = append(out, chunk{disk: a.disks[member], addr: memberAddr, size: take})
		addr += take
		size -= take
	}
	return out
}

// Access implements Device.
func (a *Array) Access(p *sim.Proc, addr, size int64, write bool) { access(p, a, addr, size, write) }

// AccessT implements Device, striping the request across members: one
// helper task per member disk serves that disk's chunks in order, and the
// request completes when the last helper has.
func (a *Array) AccessT(t *sim.Task, addr, size int64, write bool, k func()) {
	if size <= 0 {
		if size < 0 {
			panic("disk: negative access")
		}
		k()
		return
	}
	// The common request maps to a chunk or a few: they stay on the stack.
	var scratch [4]chunk
	chunks := a.mapRequest(scratch[:0], addr, size)
	if len(chunks) == 1 {
		chunks[0].disk.AccessT(t, chunks[0].addr, chunks[0].size, write, k)
		return
	}
	// Coalesce contiguous chunks on the same member so a long sequential
	// request costs one seek per disk, not one per stripe.
	perDisk := make(map[*Disk][]chunk)
	for _, c := range chunks {
		l := perDisk[c.disk]
		if n := len(l); n > 0 && l[n-1].addr+l[n-1].size == c.addr {
			l[n-1].size += c.size
		} else {
			l = append(l, c)
		}
		perDisk[c.disk] = l
	}
	events := make([]*sim.Event, 0, len(perDisk))
	for _, d := range a.disks { // deterministic iteration order
		l, ok := perDisk[d]
		if !ok {
			continue
		}
		d := d
		helper := a.env.StartTask("raid-chunk", func(q *sim.Task) {
			d.takeOp().run(q, l, write, q.End)
		})
		events = append(events, helper.Done())
	}
	var join func(i int)
	join = func(i int) {
		if i == len(events) {
			k()
			return
		}
		events[i].WaitFn(func() { join(i + 1) })
	}
	join(0)
}
