package gluster

import (
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// FuseConfig models the kernel VFS → FUSE → userspace crossing that every
// GlusterFS client operation pays (the paper: "calls are translated from
// the kernel VFS to the userspace daemon through FUSE").
type FuseConfig struct {
	// OpCPU is the fixed crossing cost per operation (two context
	// switches plus request marshaling).
	OpCPU sim.Duration
	// PerByteCPUNanos is the user/kernel copy cost for read/write data.
	PerByteCPUNanos float64
}

// DefaultFuseConfig matches 2008-era FUSE on the paper's client nodes:
// two kernel/user crossings plus the glusterfs client daemon's own
// translator work per operation.
var DefaultFuseConfig = FuseConfig{
	OpCPU:           25 * time.Microsecond,
	PerByteCPUNanos: 1.0,
}

// Fuse is the top-of-stack client xlator charging the FUSE crossing cost
// before delegating to its child.
type Fuse struct {
	Blocking
	node  *fabric.Node
	child TaskFS
	cfg   FuseConfig

	// End-to-end client-visible latency distributions (the whole stack
	// below the VFS boundary), registered by Register; nil no-ops
	// otherwise.
	readHist, writeHist, statHist *telemetry.Hist

	// ops pools the per-operation frames of StatT, ReadT and WriteT (see
	// fuseOp).
	ops []*fuseOp
}

var _ TaskFS = (*Fuse)(nil)

// NewFuse wraps child with the FUSE cost model on the given client node.
func NewFuse(node *fabric.Node, child FS, cfg FuseConfig) *Fuse {
	if cfg.OpCPU == 0 {
		cfg.OpCPU = DefaultFuseConfig.OpCPU
	}
	if cfg.PerByteCPUNanos == 0 {
		cfg.PerByteCPUNanos = DefaultFuseConfig.PerByteCPUNanos
	}
	f := &Fuse{node: node, child: Lift(child), cfg: cfg}
	f.T = f
	return f
}

// TaskReady implements TaskFS: the FUSE layer is task-capable when its
// child stack is.
func (f *Fuse) TaskReady() bool { return f.child.TaskReady() }

func (f *Fuse) chargeT(t *sim.Task, payload int64, k func()) {
	f.node.CPU.UseT(t, f.cfg.OpCPU+sim.Duration(float64(payload)*f.cfg.PerByteCPUNanos), k)
}

// CreateT implements TaskFS.
func (f *Fuse) CreateT(t *sim.Task, path string, k func(FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "create")
	f.chargeT(t, 0, func() {
		f.child.CreateT(t, path, func(fd FD, err error) {
			sp.End(t)
			k(fd, err)
		})
	})
}

// OpenT implements TaskFS.
func (f *Fuse) OpenT(t *sim.Task, path string, k func(FD, error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "open")
	f.chargeT(t, 0, func() {
		f.child.OpenT(t, path, func(fd FD, err error) {
			sp.End(t)
			k(fd, err)
		})
	})
}

// CloseT implements TaskFS.
func (f *Fuse) CloseT(t *sim.Task, fd FD, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "close")
	f.chargeT(t, 0, func() {
		f.child.CloseT(t, fd, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// fuseOp is the FUSE layer's pooled per-operation frame, serving StatT,
// ReadT and WriteT — the operations a benchmark issues by the hundred
// thousand. The closure chain of the generic chargeT — acquire, sleep,
// release, child callback — costs four heap allocations per call; the op
// carries those continuations as prebound method values instead, so a
// steady-state operation allocates nothing at this layer. The decomposition
// AcquireT(1)+Sleep(d)+Release(1) consumes exactly the schedules chargeT's
// Resource.UseT does. The frame returns to the pool before the caller's
// continuation runs — everything it needs is copied to locals first — so a
// continuation that immediately issues the next operation reuses it.
type fuseOp struct {
	f    *Fuse
	verb verb
	t    *sim.Task
	sp   *optrace.Span
	t0   sim.Time
	d    sim.Duration // the crossing (and copy) cost being charged

	path string // stat
	fd   FD
	off  int64
	// data is a write's payload until the child has it, and a read's result
	// while its copy is charged (with err, the child's verdict).
	data blob.Blob
	err  error

	kStat  func(*Stat, error)
	kRead  func(blob.Blob, error)
	kWrite func(int64, error)

	// Each verb's child continuation is bound when the frame first serves
	// that verb, so a mount that only stats binds only fnStat.
	fnHeld, fnCharged func()
	fnStat            func(*Stat, error)
	fnRead            func(blob.Blob, error)
	fnWrite           func(int64, error)
}

// start draws a frame for one operation and opens its span.
func (f *Fuse) start(t *sim.Task, v verb) *fuseOp {
	var op *fuseOp
	if n := len(f.ops); n > 0 {
		op = f.ops[n-1]
		f.ops[n-1] = nil
		f.ops = f.ops[:n-1]
	} else {
		op = &fuseOp{f: f}
		op.fnHeld, op.fnCharged = op.held, op.charged
	}
	op.verb, op.t = v, t
	op.sp = optrace.StartSpan(t, optrace.LayerFuse, v.String())
	op.t0 = t.Now()
	return op
}

// end closes the operation's span and latency sample and returns the frame
// to the pool; the caller has copied out what its continuation needs.
func (op *fuseOp) end(h *telemetry.Hist) {
	op.sp.End(op.t)
	h.ObserveSince(op.t, op.t0)
	op.t, op.sp, op.path, op.data, op.err = nil, nil, "", blob.Blob{}, nil
	op.kStat, op.kRead, op.kWrite = nil, nil, nil
	op.f.ops = append(op.f.ops, op)
}

// charge takes the client CPU for the crossing plus the copy of payload
// bytes; charged continues.
func (op *fuseOp) charge(payload int64) {
	cfg := &op.f.cfg
	op.d = cfg.OpCPU + sim.Duration(float64(payload)*cfg.PerByteCPUNanos)
	op.f.node.CPU.AcquireT(op.t, 1, op.fnHeld)
}

// held runs once the CPU unit is granted: hold it for the charge.
func (op *fuseOp) held() { op.t.Sleep(op.d, op.fnCharged) }

// charged releases the CPU. A stat or a write now goes down the stack; a
// read, charged on the bytes it returned, is complete.
func (op *fuseOp) charged() {
	f := op.f
	f.node.CPU.Release(1)
	switch op.verb {
	case verbStat:
		if op.fnStat == nil {
			op.fnStat = op.stat
		}
		f.child.StatT(op.t, op.path, op.fnStat)
	case verbWrite:
		if op.fnWrite == nil {
			op.fnWrite = op.wrote
		}
		f.child.WriteT(op.t, op.fd, op.off, op.data, op.fnWrite)
	default:
		k, data, err := op.kRead, op.data, op.err
		op.end(f.readHist)
		k(data, err)
	}
}

// ReadT implements TaskFS. The user/kernel copy is charged after the child
// returns, on the bytes actually read.
func (f *Fuse) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	op := f.start(t, verbRead)
	if op.fnRead == nil {
		op.fnRead = op.read
	}
	op.kRead = k
	f.child.ReadT(t, fd, off, size, op.fnRead)
}

// read receives the child's result. data may be lent by a protocol response
// that is recycled when this returns; the frame keeps its own copy of the
// value.
func (op *fuseOp) read(data blob.Blob, err error) {
	op.data, op.err = data, err
	op.charge(data.Len())
}

// WriteT implements TaskFS. The copy is charged before the child sees the
// data.
func (f *Fuse) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	op := f.start(t, verbWrite)
	op.fd, op.off, op.data, op.kWrite = fd, off, data, k
	op.charge(data.Len())
}

func (op *fuseOp) wrote(n int64, err error) {
	k := op.kWrite
	op.end(op.f.writeHist)
	k(n, err)
}

// StatT implements TaskFS.
func (f *Fuse) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := f.start(t, verbStat)
	op.path, op.kStat = path, k
	op.charge(0)
}

func (op *fuseOp) stat(st *Stat, err error) {
	k := op.kStat
	op.end(op.f.statHist)
	k(st, err)
}

// UnlinkT implements TaskFS.
func (f *Fuse) UnlinkT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "unlink")
	f.chargeT(t, 0, func() {
		f.child.UnlinkT(t, path, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// MkdirT implements TaskFS.
func (f *Fuse) MkdirT(t *sim.Task, path string, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "mkdir")
	f.chargeT(t, 0, func() {
		f.child.MkdirT(t, path, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}

// ReaddirT implements TaskFS.
func (f *Fuse) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "readdir")
	f.chargeT(t, 0, func() {
		f.child.ReaddirT(t, path, func(names []string, err error) {
			sp.End(t)
			k(names, err)
		})
	})
}

// TruncateT implements TaskFS.
func (f *Fuse) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "truncate")
	f.chargeT(t, 0, func() {
		f.child.TruncateT(t, path, size, func(err error) {
			sp.End(t)
			k(err)
		})
	})
}
