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

	// statOps pools StatT's per-operation frames (see fuseStatOp).
	statOps []*fuseStatOp
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

// ReadT implements TaskFS. The user/kernel copy is charged after the child
// returns, on the bytes actually read.
func (f *Fuse) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "read")
	t0 := t.Now()
	f.child.ReadT(t, fd, off, size, func(data blob.Blob, err error) {
		f.chargeT(t, data.Len(), func() {
			sp.End(t)
			f.readHist.ObserveSince(t, t0)
			k(data, err)
		})
	})
}

// WriteT implements TaskFS. The copy is charged before the child sees the
// data.
func (f *Fuse) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	sp := optrace.StartSpan(t, optrace.LayerFuse, "write")
	t0 := t.Now()
	f.chargeT(t, data.Len(), func() {
		f.child.WriteT(t, fd, off, data, func(n int64, err error) {
			sp.End(t)
			f.writeHist.ObserveSince(t, t0)
			k(n, err)
		})
	})
}

// fuseStatOp is StatT's pooled per-operation frame. StatT is the FUSE
// layer's hottest metadata path (fig5 issues hundreds of thousands per
// cell), and the closure chain of the generic chargeT — acquire, sleep,
// release, child callback — costs four heap allocations per call. The op
// carries those continuations as prebound method values instead, so a
// steady-state stat allocates nothing at this layer. The decomposition
// AcquireT(1)+Sleep(OpCPU)+Release(1) consumes exactly the schedules
// chargeT's Resource.UseT does.
type fuseStatOp struct {
	f    *Fuse
	t    *sim.Task
	path string
	k    func(*Stat, error)
	sp   *optrace.Span
	t0   sim.Time

	fnHeld, fnCharged func()
	fnStat            func(*Stat, error)
}

func (f *Fuse) takeStatOp() *fuseStatOp {
	if n := len(f.statOps); n > 0 {
		op := f.statOps[n-1]
		f.statOps = f.statOps[:n-1]
		return op
	}
	op := &fuseStatOp{f: f}
	op.fnHeld = op.held
	op.fnCharged = op.charged
	op.fnStat = op.stat
	return op
}

func (f *Fuse) putStatOp(op *fuseStatOp) {
	op.t, op.path, op.k, op.sp = nil, "", nil, nil
	f.statOps = append(f.statOps, op)
}

// held runs once the CPU unit is granted: hold it for the crossing cost.
func (op *fuseStatOp) held() { op.t.Sleep(op.f.cfg.OpCPU, op.fnCharged) }

// charged releases the CPU and forwards the stat down the stack.
func (op *fuseStatOp) charged() {
	op.f.node.CPU.Release(1)
	op.f.child.StatT(op.t, op.path, op.fnStat)
}

// stat completes the operation. The frame is recycled before the caller's
// continuation runs — everything it needs is copied to locals first — so a
// continuation that immediately issues the next stat reuses this frame.
func (op *fuseStatOp) stat(st *Stat, err error) {
	f, t, sp, t0, k := op.f, op.t, op.sp, op.t0, op.k
	f.putStatOp(op)
	sp.End(t)
	f.statHist.ObserveSince(t, t0)
	k(st, err)
}

// StatT implements TaskFS.
func (f *Fuse) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	op := f.takeStatOp()
	op.t, op.path, op.k = t, path, k
	op.sp = optrace.StartSpan(t, optrace.LayerFuse, "stat")
	op.t0 = t.Now()
	f.node.CPU.AcquireT(t, 1, op.fnHeld)
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
