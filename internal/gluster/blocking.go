package gluster

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// Blocking derives the ten blocking FS methods from an xlator's *T
// operations: each is the *T operation awaited by the calling process
// (sim.Proc.Await). Every xlator written in continuation style embeds one,
// pointed at itself, and so has exactly one implementation per operation.
//
// Results an xlator only lends to its continuation are copied before the
// Await ends — the pooled *Stat a cache hit decodes into is the case in
// point — so what a blocking caller receives is its own.
type Blocking struct {
	// T is the xlator whose *T operations the blocking methods await.
	T TaskFS
}

// await1 and await2 run one *T operation to completion on behalf of p and
// return what it handed its continuation.
func await1[A any](p *sim.Proc, op func(t *sim.Task, k func(A))) (a A) {
	p.Await(func(t *sim.Task) {
		op(t, func(x A) {
			a = x
			t.End()
		})
	})
	return a
}

func await2[A, B any](p *sim.Proc, op func(t *sim.Task, k func(A, B))) (a A, b B) {
	p.Await(func(t *sim.Task) {
		op(t, func(x A, y B) {
			a, b = x, y
			t.End()
		})
	})
	return a, b
}

// Create implements FS.
func (b Blocking) Create(p *sim.Proc, path string) (FD, error) {
	return await2(p, func(t *sim.Task, k func(FD, error)) { b.T.CreateT(t, path, k) })
}

// Open implements FS.
func (b Blocking) Open(p *sim.Proc, path string) (FD, error) {
	return await2(p, func(t *sim.Task, k func(FD, error)) { b.T.OpenT(t, path, k) })
}

// Close implements FS.
func (b Blocking) Close(p *sim.Proc, fd FD) error {
	return await1(p, func(t *sim.Task, k func(error)) { b.T.CloseT(t, fd, k) })
}

// Read implements FS.
func (b Blocking) Read(p *sim.Proc, fd FD, off, size int64) (blob.Blob, error) {
	return await2(p, func(t *sim.Task, k func(blob.Blob, error)) { b.T.ReadT(t, fd, off, size, k) })
}

// Write implements FS.
func (b Blocking) Write(p *sim.Proc, fd FD, off int64, data blob.Blob) (int64, error) {
	return await2(p, func(t *sim.Task, k func(int64, error)) { b.T.WriteT(t, fd, off, data, k) })
}

// Stat implements FS. The structure StatT hands its continuation may be a
// pooled frame's scratch; the caller gets a copy, made before the Await
// ends.
func (b Blocking) Stat(p *sim.Proc, path string) (*Stat, error) {
	return await2(p, func(t *sim.Task, k func(*Stat, error)) {
		b.T.StatT(t, path, func(lent *Stat, err error) {
			if lent != nil {
				cp := *lent
				lent = &cp
			}
			k(lent, err)
		})
	})
}

// Unlink implements FS.
func (b Blocking) Unlink(p *sim.Proc, path string) error {
	return await1(p, func(t *sim.Task, k func(error)) { b.T.UnlinkT(t, path, k) })
}

// Mkdir implements FS.
func (b Blocking) Mkdir(p *sim.Proc, path string) error {
	return await1(p, func(t *sim.Task, k func(error)) { b.T.MkdirT(t, path, k) })
}

// Readdir implements FS.
func (b Blocking) Readdir(p *sim.Proc, path string) ([]string, error) {
	return await2(p, func(t *sim.Task, k func([]string, error)) { b.T.ReaddirT(t, path, k) })
}

// Truncate implements FS.
func (b Blocking) Truncate(p *sim.Proc, path string, size int64) error {
	return await1(p, func(t *sim.Task, k func(error)) { b.T.TruncateT(t, path, size, k) })
}

// Lift returns fs as a TaskFS, so an xlator can hold any child through one
// interface: fs itself when it is written in continuation style, otherwise
// a shim whose *T operations run fs's blocking methods on the process
// their task fronts (sim.Task.Block). The shim reports TaskReady false —
// it can only serve a task that fronts a process — and every xlator above
// it inherits that answer, which is how a driver learns to run such a
// stack under Process+Await rather than StartTask.
func Lift(fs FS) TaskFS {
	if tfs, ok := fs.(TaskFS); ok {
		return tfs
	}
	return lifted{fs}
}

// lifted is Lift's shim over a blocking-only file system (the Lustre and
// NFS clients, the fault oracle, the trace recorder).
type lifted struct{ FS }

func (l lifted) TaskReady() bool { return false }

// block1 and block2 run one blocking operation on the process t fronts and
// hand its results to k.
func block1[A any](t *sim.Task, op func(p *sim.Proc) A, k func(A)) {
	var a A
	t.Block(func(p *sim.Proc) { a = op(p) }, func() { k(a) })
}

func block2[A, B any](t *sim.Task, op func(p *sim.Proc) (A, B), k func(A, B)) {
	var a A
	var b B
	t.Block(func(p *sim.Proc) { a, b = op(p) }, func() { k(a, b) })
}

func (l lifted) CreateT(t *sim.Task, path string, k func(FD, error)) {
	block2(t, func(p *sim.Proc) (FD, error) { return l.Create(p, path) }, k)
}

func (l lifted) OpenT(t *sim.Task, path string, k func(FD, error)) {
	block2(t, func(p *sim.Proc) (FD, error) { return l.Open(p, path) }, k)
}

func (l lifted) CloseT(t *sim.Task, fd FD, k func(error)) {
	block1(t, func(p *sim.Proc) error { return l.Close(p, fd) }, k)
}

func (l lifted) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	block2(t, func(p *sim.Proc) (blob.Blob, error) { return l.Read(p, fd, off, size) }, k)
}

func (l lifted) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	block2(t, func(p *sim.Proc) (int64, error) { return l.Write(p, fd, off, data) }, k)
}

func (l lifted) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	block2(t, func(p *sim.Proc) (*Stat, error) { return l.Stat(p, path) }, k)
}

func (l lifted) UnlinkT(t *sim.Task, path string, k func(error)) {
	block1(t, func(p *sim.Proc) error { return l.Unlink(p, path) }, k)
}

func (l lifted) MkdirT(t *sim.Task, path string, k func(error)) {
	block1(t, func(p *sim.Proc) error { return l.Mkdir(p, path) }, k)
}

func (l lifted) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	block2(t, func(p *sim.Proc) ([]string, error) { return l.Readdir(p, path) }, k)
}

func (l lifted) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	block1(t, func(p *sim.Proc) error { return l.Truncate(p, path, size) }, k)
}
