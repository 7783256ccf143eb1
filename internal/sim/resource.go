package sim

// Resource is a counted server with a FIFO queue: up to Capacity units may
// be held concurrently; further acquirers wait in arrival order. It models
// contended hardware such as a NIC, a disk arm, or a pool of server
// threads. Processes and tasks share one queue: a waiter is a parked
// process or a pending task continuation, admitted in strict arrival order
// either way.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	// waiters[head:] is the FIFO queue, stored by value so enqueueing
	// allocates nothing once the backing array has grown to the queue's
	// high-water mark. head advances on admission instead of re-slicing,
	// which would strand the vacated capacity; Release compacts or resets
	// the array when the queue drains or the dead prefix dominates.
	waiters []resWaiter
	head    int

	// Utilization accounting.
	busyTime Duration
	lastBusy Time
	acquires uint64
	waitTime Duration
	maxQueue int

	// useOps is the UseT frame free list; see useOp.
	useOps []*useOp
}

// resWaiter is one queued acquirer: a parked process (p) or a task
// continuation (fn); exactly one is set.
type resWaiter struct {
	p  *Proc
	fn func()
	n  int
	t  Time
}

// NewResource returns a resource with the given concurrent capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

// Capacity returns the configured concurrency.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

func (r *Resource) accountBusy() {
	if r.inUse > 0 {
		r.busyTime += r.env.now.Sub(r.lastBusy)
	}
	r.lastBusy = r.env.now
}

// Acquire blocks p until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	r.acquires++
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.accountBusy()
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n, t: r.env.now})
	if q := r.QueueLen(); q > r.maxQueue {
		r.maxQueue = q
	}
	p.park()
}

// AcquireT takes n units and runs k. When the units are free the grant is
// immediate: k runs inline and no event is scheduled, mirroring Acquire's
// uncontended fast path. Otherwise the continuation queues FIFO behind
// earlier acquirers and is dispatched by Release.
func (r *Resource) AcquireT(t *Task, n int, k func()) {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	r.acquires++
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.accountBusy()
		r.inUse += n
		k()
		return
	}
	//imcalint:allow allocfree amortised growth: the waiter queue's backing array is reused, so it grows only to the deepest queue seen
	r.waiters = append(r.waiters, resWaiter{fn: k, n: n, t: r.env.now})
	if q := r.QueueLen(); q > r.maxQueue {
		r.maxQueue = q
	}
}

// Release returns n units and wakes as many FIFO waiters as now fit. Each
// admitted waiter costs one scheduled event — a process wake-up or a task
// continuation dispatch.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.accountBusy()
	r.inUse -= n
	for r.head < len(r.waiters) && r.inUse+r.waiters[r.head].n <= r.capacity {
		w := r.waiters[r.head]
		r.waiters[r.head] = resWaiter{} // drop the Proc/closure reference
		r.head++
		r.accountBusy()
		r.inUse += w.n
		r.waitTime += r.env.now.Sub(w.t)
		if w.p != nil {
			r.env.scheduleProc(w.p, 0)
		} else {
			r.env.schedule(r.env.now, nil, w.fn)
		}
	}
	// Reclaim the dead prefix so steady-state contention reuses one
	// backing array instead of growing it per admission. Host-side only:
	// admission order and schedule consumption are untouched.
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	} else if r.head >= 32 && r.head*2 >= len(r.waiters) {
		n := copy(r.waiters, r.waiters[r.head:])
		for i := n; i < len(r.waiters); i++ {
			r.waiters[i] = resWaiter{}
		}
		r.waiters = r.waiters[:n]
		r.head = 0
	}
}

// Use acquires one unit, holds it for d, and releases it: the common
// "serve one request" pattern.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

// useOp is one in-flight UseT: the acquire→hold→release chain as a pooled
// frame with prebound continuations, so the kernel's most common task
// pattern allocates nothing. The frame returns to its resource's free list
// before k runs, so a continuation that immediately re-enters UseT on the
// same resource reuses the frame it just vacated.
type useOp struct {
	r *Resource
	t *Task
	d Duration
	k func()

	fnHeld    func()
	fnCharged func()
}

func (r *Resource) takeUseOp() *useOp {
	if n := len(r.useOps); n > 0 {
		op := r.useOps[n-1]
		r.useOps[n-1] = nil
		r.useOps = r.useOps[:n-1]
		return op
	}
	op := &useOp{r: r}
	op.fnHeld = op.held
	op.fnCharged = op.charged
	return op
}

func (op *useOp) held() { op.t.Sleep(op.d, op.fnCharged) }

func (op *useOp) charged() {
	r, k := op.r, op.k
	op.t, op.k = nil, nil
	r.useOps = append(r.useOps, op)
	r.Release(1)
	k()
}

// UseT is Use for tasks: acquire one unit, hold it for d, release, then
// run k. Schedule consumption matches Use exactly.
func (r *Resource) UseT(t *Task, d Duration, k func()) {
	op := r.takeUseOp()
	op.t, op.d, op.k = t, d, k
	r.AcquireT(t, 1, op.fnHeld)
}

// Utilization returns the fraction of elapsed virtual time the resource has
// been at least partially busy.
func (r *Resource) Utilization() float64 {
	r.accountBusy()
	if r.env.now == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.env.now)
}

// Stats summarizes contention seen so far.
func (r *Resource) Stats() (acquires uint64, avgWait Duration, maxQueue int) {
	acquires = r.acquires
	if r.acquires > 0 {
		avgWait = r.waitTime / Duration(r.acquires)
	}
	return acquires, avgWait, r.maxQueue
}

// Barrier blocks processes until a fixed number have arrived, then releases
// them all at the same instant. It is reusable: after releasing a
// generation it resets for the next. Processes and tasks may share one
// barrier: the last arriver — either kind — releases the generation.
type Barrier struct {
	env     *Env
	parties int
	waiting []barrierWaiter
}

// barrierWaiter is one arrived party: a parked process or a task
// continuation; exactly one is set.
type barrierWaiter struct {
	p  *Proc
	fn func()
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(env *Env, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier parties must be positive")
	}
	return &Barrier{env: env, parties: parties}
}

// Wait blocks p until all parties have arrived.
func (b *Barrier) Wait(p *Proc) {
	if len(b.waiting)+1 == b.parties {
		b.release()
		return
	}
	b.waiting = append(b.waiting, barrierWaiter{p: p})
	p.park()
}

// WaitT runs k when all parties have arrived. The last arriver's k runs
// inline — consuming no sequence number, exactly as the last Wait caller
// continues without parking — after the earlier arrivals are scheduled.
func (b *Barrier) WaitT(t *Task, k func()) {
	if len(b.waiting)+1 == b.parties {
		b.release()
		k()
		return
	}
	b.waiting = append(b.waiting, barrierWaiter{fn: k})
}

// release schedules every waiting party at the current instant and resets
// the barrier for the next generation.
func (b *Barrier) release() {
	for _, w := range b.waiting {
		if w.p != nil {
			b.env.scheduleProc(w.p, 0)
		} else {
			b.env.schedule(b.env.now, nil, w.fn)
		}
	}
	b.waiting = b.waiting[:0]
}
