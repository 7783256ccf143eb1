package gluster

import (
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// The kernel VFS → FUSE → userspace crossing that every GlusterFS client
// operation pays (the paper: "calls are translated from the kernel VFS to
// the userspace daemon through FUSE"), as on the paper's 2008 client nodes.
const (
	// FuseOpCPU is the fixed crossing cost per operation: two kernel/user
	// crossings plus the glusterfs client daemon's own translator work.
	FuseOpCPU sim.Duration = 25 * time.Microsecond
	// FusePerByteCPUNanos is the user/kernel copy cost (ns/byte) for read
	// and write data.
	FusePerByteCPUNanos = 1.0
)

// Fuse is the top-of-stack client xlator charging the FUSE crossing cost
// before delegating to its child.
type Fuse struct {
	Blocking
	node  *fabric.Node
	child TaskFS

	// End-to-end client-visible latency distributions (the whole stack
	// below the VFS boundary) of read, write and stat, registered by
	// Register; nil no-ops otherwise.
	hists [numVerbs]*metrics.Histogram

	// ops pools the per-operation frames; see fuseOp.
	ops sim.Free[fuseOp]
}

var _ TaskFS = (*Fuse)(nil)

// NewFuse wraps child with the FUSE cost model on the given client node.
func NewFuse(node *fabric.Node, child FS) *Fuse {
	f := &Fuse{node: node, child: Lift(child)}
	f.Blocking = NewBlocking(f)
	return f
}

// TaskReady implements TaskFS: the FUSE layer is task-capable when its
// child stack is.
func (f *Fuse) TaskReady() bool { return f.child.TaskReady() }

// fuseOp is the FUSE layer's pooled per-operation frame: every operation
// charges the crossing, runs on the child, and hands the result up, on
// continuations prebound as method values, so a steady-state operation
// allocates nothing at this layer. The charge is AcquireT(1)+Sleep(d)+
// Release(1), exactly the schedules of Resource.UseT. The frame returns to
// the pool before the caller's continuation runs — everything it needs is
// copied to locals first — so a continuation that immediately issues the
// next operation reuses it.
type fuseOp struct {
	f  *Fuse
	t  *sim.Task
	sp *optrace.Span
	t0 sim.Time
	d  sim.Duration // the crossing (and copy) cost being charged

	req request // the operation and its operands; never on the wire
	// A read's result while its copy is charged.
	data blob.Blob
	err  error

	k conts // the caller's continuation, by result shape

	fnHeld, fnCharged func()
	fn                conts // the frame's own continuations; see conts.down
}

// start draws a frame for one operation and opens its span.
func (f *Fuse) start(t *sim.Task, v verb) *fuseOp {
	op := f.ops.Pop()
	if op == nil {
		op = &fuseOp{f: f}
		op.fnHeld, op.fnCharged = op.held, op.charged
	}
	op.req.verb, op.t = v, t
	op.sp = optrace.StartSpan(t, optrace.LayerFuse, v.String())
	op.t0 = t.Now()
	return op
}

// end closes the operation's span and latency sample and returns the frame
// to the pool; the caller has copied out what its continuation needs.
func (op *fuseOp) end() {
	op.sp.End(op.t)
	op.f.hists[op.req.verb].Observe(op.t.Now().Sub(op.t0))
	op.t, op.sp, op.data, op.err = nil, nil, blob.Blob{}, nil
	op.req, op.k = request{}, conts{}
	op.f.ops.Push(op)
}

// charge takes the client CPU for the crossing plus the copy of payload
// bytes; charged continues.
func (op *fuseOp) charge(payload int64) {
	op.d = FuseOpCPU + sim.Duration(float64(payload)*FusePerByteCPUNanos)
	op.f.node.CPU.AcquireT(op.t, 1, op.fnHeld)
}

// held runs once the CPU unit is granted: hold it for the charge.
func (op *fuseOp) held() { op.t.Sleep(op.d, op.fnCharged) }

// charged releases the CPU. A read, charged on the bytes it returned, is
// complete; every other operation now goes down the stack.
func (op *fuseOp) charged() {
	f := op.f
	f.node.CPU.Release(1)
	if op.req.verb == verbRead {
		k, data, err := op.k.data, op.data, op.err
		op.end()
		k(data, err)
		return
	}
	op.fn.down(op, f.child, op.t, &op.req)
}

// CreateT implements TaskFS.
func (f *Fuse) CreateT(t *sim.Task, path string, k func(FD, error)) {
	op := f.start(t, verbCreate)
	op.req.path, op.k.fd = path, k
	op.charge(0)
}

// OpenT implements TaskFS.
func (f *Fuse) OpenT(t *sim.Task, path string, k func(FD, error)) {
	op := f.start(t, verbOpen)
	op.req.path, op.k.fd = path, k
	op.charge(0)
}

// CloseT implements TaskFS.
func (f *Fuse) CloseT(t *sim.Task, fd FD, k func(error)) {
	op := f.start(t, verbClose)
	op.req.fd, op.k.err = fd, k
	op.charge(0)
}

// ReadT implements TaskFS. The user/kernel copy is charged after the child
// returns, on the bytes actually read. Like WriteT and TruncateT it refuses
// an invalid range (CheckRange) before anything is charged or sent.
func (f *Fuse) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	if err := CheckRange(off, size); err != nil {
		k(blob.Blob{}, err)
		return
	}
	op := f.start(t, verbRead)
	op.req.fd, op.req.off, op.req.size, op.k.data = fd, off, size, k
	op.fn.down(op, f.child, t, &op.req)
}

// WriteT implements TaskFS. The copy is charged before the child sees the
// data.
func (f *Fuse) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	if err := CheckRange(off, data.Len()); err != nil {
		k(0, err)
		return
	}
	op := f.start(t, verbWrite)
	op.req.fd, op.req.off, op.req.data, op.k.n = fd, off, data, k
	op.charge(data.Len())
}

// StatT implements TaskFS.
func (f *Fuse) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := f.start(t, verbStat)
	op.req.path, op.k.stat = path, k
	op.charge(0)
}

// UnlinkT implements TaskFS.
func (f *Fuse) UnlinkT(t *sim.Task, path string, k func(error)) {
	op := f.start(t, verbUnlink)
	op.req.path, op.k.err = path, k
	op.charge(0)
}

// MkdirT implements TaskFS.
func (f *Fuse) MkdirT(t *sim.Task, path string, k func(error)) {
	op := f.start(t, verbMkdir)
	op.req.path, op.k.err = path, k
	op.charge(0)
}

// ReaddirT implements TaskFS.
func (f *Fuse) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	op := f.start(t, verbReaddir)
	op.req.path, op.k.names = path, k
	op.charge(0)
}

// TruncateT implements TaskFS.
func (f *Fuse) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	if err := CheckRange(0, size); err != nil {
		k(err)
		return
	}
	op := f.start(t, verbTruncate)
	op.req.path, op.req.size, op.k.err = path, size, k
	op.charge(0)
}

// The child's results (fuseOp is a sink). A read's data may be lent by a
// protocol response that is recycled when gotData returns: the frame keeps
// its own copy of the value while the copy is charged. Everything else ends
// the operation.

func (op *fuseOp) gotData(data blob.Blob, err error) {
	op.data, op.err = data, err
	op.charge(data.Len())
}

func (op *fuseOp) gotFD(fd FD, err error) {
	k := op.k.fd
	op.end()
	k(fd, err)
}

func (op *fuseOp) gotErr(err error) {
	k := op.k.err
	op.end()
	k(err)
}

func (op *fuseOp) gotN(n int64, err error) {
	k := op.k.n
	op.end()
	k(n, err)
}

func (op *fuseOp) gotStat(st *Stat, err error) {
	k := op.k.stat
	op.end()
	k(st, err)
}

func (op *fuseOp) gotNames(names []string, err error) {
	k := op.k.names
	op.end()
	k(names, err)
}
