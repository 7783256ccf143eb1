package sim

// Resource is a counted server with a FIFO queue: up to its capacity in
// units may be held concurrently; further acquirers wait in arrival order.
// It models contended hardware such as a NIC, a disk arm, or a pool of
// server threads. A waiter is a continuation — a task's, or the one that
// ends a process's Await — so both share one queue in strict arrival order.
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

	// useOps is the UseT frame free list; see useOp.
	useOps Free[useOp]
}

// resWaiter is one queued acquirer: its continuation and its unit count.
type resWaiter struct {
	fn func()
	n  int
}

// NewResource returns a resource with the given concurrent capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

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
	p.Await(func(t *Task) { r.AcquireT(t, n, t.front.fnEnd) })
}

// AcquireT takes n units and runs k. When the units are free the grant is
// immediate: k runs inline and no event is scheduled. Otherwise the
// continuation queues FIFO behind earlier acquirers and is dispatched by
// Release.
func (r *Resource) AcquireT(t *Task, n int, k func()) {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.accountBusy()
		r.inUse += n
		k()
		return
	}
	// Amortised growth: the waiter queue's backing array is reused, so it
	// grows only to the deepest queue seen.
	r.waiters = append(r.waiters, resWaiter{fn: k, n: n})
}

// Release returns n units and admits as many FIFO waiters as now fit, each
// costing one scheduled event.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.accountBusy()
	r.inUse -= n
	for r.head < len(r.waiters) && r.inUse+r.waiters[r.head].n <= r.capacity {
		w := r.waiters[r.head]
		r.waiters[r.head] = resWaiter{} // drop the closure reference
		r.head++
		r.accountBusy()
		r.inUse += w.n
		r.env.schedule(0, w.fn)
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
	p.Await(func(t *Task) { r.UseT(t, d, t.front.fnEnd) })
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

func (op *useOp) held() { op.t.Sleep(op.d, op.fnCharged) }

func (op *useOp) charged() {
	r, k := op.r, op.k
	op.t, op.k = nil, nil
	r.useOps.Push(op)
	r.Release(1)
	k()
}

// UseT is Use for tasks: acquire one unit, hold it for d, release, then
// run k.
func (r *Resource) UseT(t *Task, d Duration, k func()) {
	op := r.useOps.Pop()
	if op == nil {
		op = &useOp{r: r}
		op.fnHeld = op.held
		op.fnCharged = op.charged
	}
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

// Barrier holds arrivals until a fixed number have arrived, then releases
// them all at the same instant. It is reusable: after releasing a
// generation it resets for the next. Processes and tasks may share one
// barrier: the last arriver — either kind — releases the generation.
type Barrier struct {
	env     *Env
	parties int
	waiting []func()
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
	p.Await(func(t *Task) { b.WaitT(t, t.front.fnEnd) })
}

// WaitT runs k when all parties have arrived. The last arriver schedules
// every earlier arrival at the current instant, resets the barrier for the
// next generation, and runs its own k inline, consuming no sequence number.
func (b *Barrier) WaitT(t *Task, k func()) {
	if len(b.waiting)+1 < b.parties {
		b.waiting = append(b.waiting, k)
		return
	}
	for _, w := range b.waiting {
		b.env.schedule(0, w)
	}
	b.waiting = b.waiting[:0]
	k()
}
