package gluster

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// Blocking derives the ten blocking FS methods from an xlator's *T
// operations: each is the *T operation awaited by the calling process
// (sim.Proc.Await). Every xlator written in continuation style embeds one,
// made by NewBlocking over itself, and so has exactly one implementation
// per operation.
//
// Each call runs on a pooled frame of the adapter's own (blockingCall), so
// a blocking call allocates nothing of its own. The pool belongs to the
// adapter, never to the package: simulations run on parallel goroutines.
//
// Results an xlator only lends to its continuation are copied before the
// Await ends — the pooled *Stat a cache hit decodes into is the case in
// point — so what a blocking caller receives is its own.
type Blocking struct {
	top   TaskFS
	calls sim.Free[blockingCall] // free frames; grows on first use
}

// NewBlocking returns the blocking adapter over top's *T operations.
func NewBlocking(top TaskFS) Blocking { return Blocking{top: top} }

// blockingCall is one blocking call: the operation and its operands, what
// the operation handed its continuation, and the frame's continuations,
// bound once (see conts.down). It returns to its adapter's pool once the
// caller has its results.
type blockingCall struct {
	b  *Blocking
	t  *sim.Task
	fn conts

	req request // the operation and its operands; never on the wire

	fd    FD
	err   error
	n     int64
	data  blob.Blob
	st    *Stat
	names []string

	fnBody func(t *sim.Task)
}

// await runs r on b's xlator for p and returns the frame holding what the
// operation handed its continuation; the caller releases it.
func (b *Blocking) await(p *sim.Proc, r request) *blockingCall {
	c := b.calls.Pop()
	if c == nil {
		c = &blockingCall{b: b}
		c.fnBody = c.body
	}
	c.req = r
	p.Await(c.fnBody)
	return c
}

func (c *blockingCall) body(t *sim.Task) {
	c.t = t
	c.fn.down(c, c.b.top, t, &c.req)
}

func (c *blockingCall) release() {
	c.t, c.req, c.err, c.data, c.st, c.names = nil, request{}, nil, blob.Blob{}, nil, nil
	c.b.calls.Push(c)
}

// The operation's results (blockingCall is a sink): each is kept and the
// Await ended.

func (c *blockingCall) gotFD(fd FD, err error) {
	c.fd, c.err = fd, err
	c.t.End()
}

func (c *blockingCall) gotErr(err error) {
	c.err = err
	c.t.End()
}

func (c *blockingCall) gotData(data blob.Blob, err error) {
	c.data, c.err = data, err
	c.t.End()
}

func (c *blockingCall) gotN(n int64, err error) {
	c.n, c.err = n, err
	c.t.End()
}

// gotStat copies the structure, which may be a pooled frame's scratch: the
// copy is the caller's.
func (c *blockingCall) gotStat(lent *Stat, err error) {
	if lent != nil {
		cp := *lent
		c.st = &cp
	}
	c.err = err
	c.t.End()
}

func (c *blockingCall) gotNames(names []string, err error) {
	c.names, c.err = names, err
	c.t.End()
}

// Create implements FS.
func (b *Blocking) Create(p *sim.Proc, path string) (FD, error) {
	c := b.await(p, request{verb: verbCreate, path: path})
	defer c.release()
	return c.fd, c.err
}

// Open implements FS.
func (b *Blocking) Open(p *sim.Proc, path string) (FD, error) {
	c := b.await(p, request{verb: verbOpen, path: path})
	defer c.release()
	return c.fd, c.err
}

// Close implements FS.
func (b *Blocking) Close(p *sim.Proc, fd FD) error {
	c := b.await(p, request{verb: verbClose, fd: fd})
	defer c.release()
	return c.err
}

// Read implements FS.
func (b *Blocking) Read(p *sim.Proc, fd FD, off, size int64) (blob.Blob, error) {
	c := b.await(p, request{verb: verbRead, fd: fd, off: off, size: size})
	defer c.release()
	return c.data, c.err
}

// Write implements FS.
func (b *Blocking) Write(p *sim.Proc, fd FD, off int64, data blob.Blob) (int64, error) {
	c := b.await(p, request{verb: verbWrite, fd: fd, off: off, data: data})
	defer c.release()
	return c.n, c.err
}

// Stat implements FS. The caller gets its own copy of the structure.
func (b *Blocking) Stat(p *sim.Proc, path string) (*Stat, error) {
	c := b.await(p, request{verb: verbStat, path: path})
	defer c.release()
	return c.st, c.err
}

// Unlink implements FS.
func (b *Blocking) Unlink(p *sim.Proc, path string) error {
	c := b.await(p, request{verb: verbUnlink, path: path})
	defer c.release()
	return c.err
}

// Mkdir implements FS.
func (b *Blocking) Mkdir(p *sim.Proc, path string) error {
	c := b.await(p, request{verb: verbMkdir, path: path})
	defer c.release()
	return c.err
}

// Readdir implements FS.
func (b *Blocking) Readdir(p *sim.Proc, path string) ([]string, error) {
	c := b.await(p, request{verb: verbReaddir, path: path})
	defer c.release()
	return c.names, c.err
}

// Truncate implements FS.
func (b *Blocking) Truncate(p *sim.Proc, path string, size int64) error {
	c := b.await(p, request{verb: verbTruncate, path: path, size: size})
	defer c.release()
	return c.err
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
