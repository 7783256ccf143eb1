package memcache

import (
	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/flight"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// SimClient accesses a bank of simulated MCDs from one fabric node,
// distributing keys with a Selector (CRC32 by default, matching
// libmemcache).
type SimClient struct {
	node     *fabric.Node
	servers  []*SimServer
	selector Selector
	// bindings pre-resolve the mcd service on each server, so the per-call
	// path never repeats the lookup or the cross-network check.
	bindings []*fabric.Binding
	// Free lists of pooled per-operation frames.
	ops      sim.Free[bankOp]
	multiOps sim.Free[multiGetOp]
	legs     sim.Free[multiGetLeg]
	// stats holds the client's failure counters, the client-side fields of
	// Stats (see ClientCounters); its daemon fields stay zero.
	stats Stats

	// Failure detection, active only after SetEjection or SetSuspicion (see
	// health.go): a server is ejected after ejectAfter consecutive failures,
	// and suspected while its get service-time EWMA is over suspectAfter.
	ejectAfter   int
	suspectAfter sim.Duration
	health       []serverHealth

	// Replication: replicas >= 2 keeps a second copy of every key on the
	// selector's replica server (see SetReplication). 0 is the paper's
	// single-copy bank.
	replicas int

	// Per-bank latency distributions (get/set/getmulti entry to exit,
	// fast-fails included), registered by Register; nil no-ops otherwise.
	getHist, setHist, multiHist *metrics.Histogram
	// fr, when attached, records failovers and ejection transitions for
	// post-mortems; nil (the default) is a no-op.
	fr *flight.Recorder
}

// NewSimClient returns a client on node addressing the given MCD bank.
func NewSimClient(node *fabric.Node, servers []*SimServer) *SimClient {
	if len(servers) == 0 {
		panic("memcache: empty MCD bank")
	}
	c := &SimClient{node: node, servers: servers, selector: CRC32Selector{}}
	c.bindings = make([]*fabric.Binding, len(servers))
	for i, s := range servers {
		c.bindings[i] = node.Bind(s.node, ServiceName)
	}
	return c
}

// SetSelector replaces the key distribution function.
func (c *SimClient) SetSelector(s Selector) { c.selector = s }

// SetReplication sets the number of copies kept per key. r >= 2 writes
// every Set/Delete through to the selector's replica server and lets Get
// fail over to that copy when the primary is ejected, suspected,
// unreachable, or answers Down. r <= 1 (the default) is the paper's
// single-copy bank. Only R=2 is modeled; larger r behaves as 2.
func (c *SimClient) SetReplication(r int) { c.replicas = r }

// replicaNext returns c's replica server for key given its primary, or -1
// when replication is off, the bank has one node, or the selector mapped
// both copies to the same daemon.
func replicaNext[K string | []byte](c *SimClient, key K, primary int) int {
	if c.replicas < 2 || len(c.servers) < 2 {
		return -1
	}
	if r := replicaKey(c.selector, key, len(c.servers)); r != primary {
		return r
	}
	return -1
}

// SetFlight attaches a flight recorder: failovers and ejection state
// transitions append fixed-size records to it. Appending costs no
// virtual time, so an attached recorder never changes results.
func (c *SimClient) SetFlight(rec *flight.Recorder) { c.fr = rec }

// Servers returns the MCD bank.
func (c *SimClient) Servers() []*SimServer { return c.servers }

// pick returns the server key maps to.
func pick[K string | []byte](c *SimClient, key K) int {
	return selectKey(c.selector, key, len(c.servers))
}

// fail counts a request that got no answer from a live daemon — err is the
// wire's one failure, a cut link; nil means a down reply — and feeds the
// health state machine. It returns the span's result label.
func (c *SimClient) fail(a sim.Actor, idx int, err error) string {
	result := "down"
	if err != nil {
		c.stats.Unreachables++
		result = "unreachable"
	} else {
		c.stats.DownReplies++
	}
	c.observe(a, idx, false)
	return result
}

// Get fetches one key; ok is false on a miss. A dead daemon or a cut link
// also reads as a miss — the bank degrades, it never stalls or fails an
// operation. An ejected server misses instantly without a wire request (see
// SetEjection). With replication on, a failed primary leg retries once
// against the replica. It is GetT awaited; the item GetT lends is copied,
// with key as its Key, so the caller owns it.
func (c *SimClient) Get(p *sim.Proc, key string) (it *Item, ok bool) {
	p.Await(func(t *sim.Task) {
		c.GetT(t, key, func(lent *Item, hit bool) {
			if hit {
				cp := *lent
				cp.Key = key
				it, ok = &cp, true
			}
			t.End()
		})
	})
	return it, ok
}

// GetMulti fetches many keys with one batched request per MCD; requests to
// distinct MCDs proceed in parallel. The result is aligned with keys:
// entry i is the item found for keys[i], or nil on a miss. Keys served by a
// dead daemon or over a cut link are simply nil — misses the caller
// satisfies from the server. Keys on an ejected server are nil without a
// request serializing onto the NIC. It is GetMultiT awaited, the lent items
// copied, each with its key as its Key.
func (c *SimClient) GetMulti(p *sim.Proc, keys []string) []*Item {
	out := make([]*Item, len(keys))
	buf, ends := flatKeys(keys)
	p.Await(func(t *sim.Task) {
		c.GetMultiT(t, buf, ends, func(lent []*Item) {
			for i, it := range lent {
				if it != nil {
					cp := *it
					cp.Key = keys[i]
					out[i] = &cp
				}
			}
			t.End()
		})
	})
	return out
}

// Set stores an item on its MCD and waits for the acknowledgement. A dead
// daemon drops the update (the bank is best-effort; correctness lives at
// the file server), and so do a cut link and an ejected server. With
// replication on, the item is written through to the replica as well; the
// primary's result is what the caller sees (the replica copy is best-effort,
// like the bank itself). It is SetT awaited.
func (c *SimClient) Set(p *sim.Proc, key string, value blob.Blob) (err error) {
	p.Await(func(t *sim.Task) {
		setFreshT(c, t, key, value, nil, func(e error) {
			err = e
			t.End()
		})
	})
	return err
}

// Delete removes a key from its MCD. An ejected server drops the delete
// without a wire request — sound for crash-ejections (the cache died with
// its contents), and the documented model boundary for partitions that
// separate a writer from a cache its readers can still reach (see
// DESIGN.md, "Fault model"). With replication on, both copies are
// deleted; found reports whether either copy held the key. It is DeleteT
// awaited.
func (c *SimClient) Delete(p *sim.Proc, key string) (found bool) {
	p.Await(func(t *sim.Task) {
		c.DeleteT(t, key, func(f bool) {
			found = f
			t.End()
		})
	})
	return found
}

// multiRespResult names an answered multi-get leg for its span.
func multiRespResult(resp *response, asked int) string {
	switch {
	case resp.down:
		return "down"
	case len(resp.items) == asked:
		return "hit"
	}
	return "partial"
}

// matchItems pairs a daemon's reply with the keys that asked for it: the
// reply names each hit by its key's position in the request, so a key
// asked twice is answered twice. hit receives that position and the item
// found for it.
func matchItems(resp *response, hit func(j int, it *Item)) {
	for n, it := range resp.items {
		hit(resp.hits[n], it)
	}
}

// routeRead picks the server a batched read for key should go to: the
// primary, unless it is currently unroutable (ejected or suspected, probe
// not yet due) and the replica is routable — then the key fails over at
// scatter time. Unlike admitRead this never counts probes or fast-fails;
// the per-server admission in the scatter loop does that once per batch.
func (c *SimClient) routeRead(a sim.Actor, key []byte) int {
	i := pick(c, key)
	r := replicaNext(c, key, i)
	if r >= 0 && !c.readRoutable(a, i) && c.readRoutable(a, r) {
		c.failover(a, r)
		return r
	}
	return i
}

// failover records a read moving to replica server r.
func (c *SimClient) failover(a sim.Actor, r int) {
	c.stats.Failovers++
	c.fr.Append(a.Now(), flight.KindFailover, c.node.Name(), c.servers[r].node.Name(), 0)
}

// Stats returns the client's failure counters: the client-side fields of
// Stats, the daemon fields zero.
func (c *SimClient) Stats() Stats { return c.stats }

// bankOp is the pooled per-operation frame of one GetT, SetT or DeleteT
// leg: the request (its key copied into its key list, which keeps its
// capacity), the completion continuation prebound as a method value, and the
// span and latency bookkeeping. The op returns to its client's pool when the
// fabric recycles the request — after both the continuation and the far
// daemon are done with it, which is what makes reuse safe even for a call a
// cut link abandoned while its request was still being served.
type bankOp struct {
	c   *SimClient
	t   *sim.Task
	sp  *optrace.Span
	idx int
	// next is the replica a failed get fails over to, -1 for none; the
	// failover leg itself always carries -1.
	next int
	t0   sim.Time
	req  request

	kGet func(*Item, bool)
	kSet func(error)
	kDel func(bool)

	fnDone func(fabric.Msg, error)
}

// takeOp draws a frame for one v request.
func (c *SimClient) takeOp(t *sim.Task, v verb) *bankOp {
	op := c.ops.Pop()
	if op == nil {
		// Pool refill: a frame is built only when the free list is empty, so
		// the count is bounded by the single-key requests in flight at once.
		op = &bankOp{c: c}
		op.req.owner = op
		op.fnDone = op.done
	}
	op.t, op.req.verb = t, v
	return op
}

// send issues op's request to server idx under span sp.
func (op *bankOp) send(idx int, sp *optrace.Span) {
	op.idx, op.sp = idx, sp
	op.c.bindings[idx].CallT(op.t, &op.req, op.fnDone)
}

func (op *bankOp) release() {
	op.t, op.sp, op.kGet, op.kSet, op.kDel = nil, nil, nil, nil, nil
	op.req.item = Item{}
	op.req.keys.reset()
	// Amortised growth: the free list holds only ops already drawn, so its
	// backing array grows to the most single-key requests ever in flight at
	// once.
	op.c.ops.Push(op)
}

// done receives the MCD's reply: the health and span bookkeeping every verb
// shares, then the verb's own decode.
func (op *bankOp) done(m fabric.Msg, err error) {
	c, t, sp := op.c, op.t, op.sp
	resp, _ := m.(*response)
	failed := err != nil || resp.down
	if failed {
		sp.SetAttr("result", c.fail(t, op.idx, err))
	} else {
		c.observe(t, op.idx, true)
	}
	switch op.req.verb {
	case verbGet:
		// A hit points into the pooled response: valid through kGet,
		// reclaimed when the fabric recycles the response after it returns.
		var hit *Item
		if !failed {
			c.observeLatency(t, op.idx, t.Now().Sub(op.t0))
			if len(resp.items) == 0 {
				sp.SetAttr("result", "miss")
			} else {
				hit = resp.items[0]
				sp.SetAttr("result", "hit")
				sp.SetAttrInt("bytes", hit.Value.Len())
			}
		}
		sp.End(t)
		c.getHist.Observe(t.Now().Sub(op.t0))
		if failed && op.next >= 0 {
			// This request stays the fabric's until the call retires, so the
			// failover leg gets its own copy of the key.
			retry := c.takeOp(t, verbGet)
			appendKey(&retry.req.keys, op.req.keys.at(0))
			retry.kGet = op.kGet
			c.failover(t, op.next)
			c.getOnT(retry, op.next, -1)
			return
		}
		op.kGet(hit, hit != nil)
	case verbSet:
		switch {
		case failed:
			if err == nil {
				err = ErrServerDown
			}
		case resp.err != "":
			sp.SetAttr("result", "error")
			err = ErrNotStored
		default:
			sp.SetAttr("result", "stored")
		}
		sp.End(t)
		c.setHist.Observe(t.Now().Sub(op.t0))
		op.kSet(err)
	default:
		sp.End(t)
		op.kDel(!failed && resp.found)
	}
}

// GetT fetches one key: k receives (item, true) on a hit and (nil, false)
// on any flavour of miss. A hit's item aliases pooled response storage and
// is valid only until k returns; continuation code copies what it keeps,
// exactly as it would from a network buffer. The item has no Key: the
// caller holds it. With replication on, a leg that fails — ejected server,
// cut link, down reply — retries once against the replica.
func (c *SimClient) GetT(t *sim.Task, key string, k func(*Item, bool)) { getKeyT(c, t, key, k) }

// GetKeyT is GetT for a key lent as bytes, valid until k runs: the request
// copies it.
func (c *SimClient) GetKeyT(t *sim.Task, key []byte, k func(*Item, bool)) { getKeyT(c, t, key, k) }

// getKeyT is GetT for a key held as a string or as borrowed bytes: the key
// is copied into a pooled op's request and asked of its primary, with its
// replica as the failover.
func getKeyT[K string | []byte](c *SimClient, t *sim.Task, key K, k func(*Item, bool)) {
	op := c.takeOp(t, verbGet)
	appendKey(&op.req.keys, key)
	op.kGet = k
	idx := pick(c, key)
	c.getOnT(op, idx, replicaNext(c, key, idx))
}

// getOnT runs one get leg against server idx; next is the replica to retry
// on if the leg fails, -1 for none.
func (c *SimClient) getOnT(op *bankOp, idx, next int) {
	t := op.t
	op.next = next
	sp := optrace.StartSpan(t, optrace.LayerMCD, verbGet.String())
	sp.SetAttr("server", c.servers[idx].node.Name())
	op.t0 = t.Now()
	if !c.admitRead(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		c.getHist.Observe(t.Now().Sub(op.t0))
		if next >= 0 {
			c.failover(t, next)
			c.getOnT(op, next, -1)
			return
		}
		k := op.kGet
		op.release()
		k(nil, false)
		return
	}
	op.send(idx, sp)
}

// multiGetOp is GetMultiT's pooled per-operation frame: the caller's
// continuation, the result slice handed to it, the by-value item
// snapshots that slice points into, and the join state of the scatter —
// one legResult and one resettable event per MCD asked, collected in
// scatter order. Everything keeps its capacity across reuses, so a
// steady-state multi-get allocates nothing. The op returns to its client's pool after k returns: the items
// are a borrow that ends there, exactly like GetT's.
type multiGetOp struct {
	c  *SimClient
	t  *sim.Task
	k  func([]*Item)
	t0 sim.Time

	out   []*Item
	items []Item
	// byServer is scatter-time scratch indexed by server: the leg gathering
	// that server's keys, nil again once the scatter loop has armed it.
	byServer []*multiGetLeg
	res      []legResult
	// evs[n] fires when res[n] is filled in; the events outlive the
	// operation and are reset for the next one. next is the leg the
	// collector consumes next.
	evs  []*sim.Event
	next int

	fnCollect func()
	fnGot1    func(*Item, bool)
}

// legResult is one MCD's scatter-gather outcome, parked in the op until the
// collector reaches it. Health accounting happens at collection, in scatter
// order — not when the reply lands.
type legResult struct {
	idx  int
	err  error
	down bool
}

// multiGetLeg is one MCD's share of a multi-get: the pooled request (its
// key list, a copy of those keys, keeps its capacity), where each of its
// keys sits in the caller's list, and a context task that is the leg's
// actor — the identity its spans nest under. A leg outlives its op's interest in it: it returns
// to the pool only when the fabric recycles the request, which for a call a
// cut link abandoned is after the far daemon has finished reading it.
type multiGetLeg struct {
	c   *SimClient
	op  *multiGetOp
	n   int // index into op.res
	t   *sim.Task
	sp  *optrace.Span
	req request
	pos []int

	fnStart func()
	fnDone  func(fabric.Msg, error)
}

// finish hands the result to the caller and recycles the op. The borrow of
// op.out ends when k returns.
func (op *multiGetOp) finish() {
	op.k(op.out)
	op.t, op.k = nil, nil
	for i := range op.out {
		op.out[i] = nil
	}
	for i := range op.items {
		op.items[i] = Item{}
	}
	for i := range op.res {
		op.res[i] = legResult{}
		op.evs[i].Reset()
	}
	op.out, op.items, op.res = op.out[:0], op.items[:0], op.res[:0]
	op.next = 0
	op.c.multiOps.Push(op)
}

// got1 completes the one-key fast path: GetT's item is valid through this
// continuation, so it is lent onward as is.
func (op *multiGetOp) got1(it *Item, ok bool) {
	if ok {
		op.out[0] = it
	}
	op.finish()
}

// release returns the leg to its client's pool; reached through the pooled
// request's Recycle, or directly for a leg whose server refused admission.
func (l *multiGetLeg) release() {
	l.req.keys.reset()
	l.pos = l.pos[:0]
	l.op, l.sp = nil, nil
	l.t.SetCtx(nil)
	l.c.legs.Push(l)
}

// start is the leg's first slice, one scheduled event after the scatter.
func (l *multiGetLeg) start() {
	c := l.c
	idx := l.op.res[l.n].idx
	l.sp = optrace.StartSpan(l.t, optrace.LayerMCD, "getmulti")
	l.sp.SetAttr("server", c.servers[idx].node.Name())
	l.sp.SetAttrInt("keys", int64(l.req.keys.len()))
	c.bindings[idx].CallT(l.t, &l.req, l.fnDone)
}

// done receives the MCD's reply. The pooled response is reclaimed when this
// returns, so hits are snapshotted into the op here; the outcome waits in
// the op for the collector, woken by the leg's event if it is parked on it.
func (l *multiGetLeg) done(m fabric.Msg, err error) {
	op := l.op
	r := &op.res[l.n]
	if err != nil {
		l.sp.SetAttr("result", "unreachable")
		r.err = err
	} else {
		resp := m.(*response)
		l.sp.SetAttr("result", multiRespResult(resp, l.req.keys.len()))
		r.down = resp.down
		if !resp.down {
			matchItems(resp, func(j int, it *Item) {
				op.items = append(op.items, *it)
				op.out[l.pos[j]] = &op.items[len(op.items)-1]
			})
		}
	}
	l.sp.End(l.t)
	op.evs[l.n].Trigger(nil)
}

// collect consumes leg outcomes in scatter order, parking on the first one
// still in flight, and completes the operation after the last.
func (op *multiGetOp) collect() {
	c, t := op.c, op.t
	for op.next < len(op.res) {
		if ev := op.evs[op.next]; !ev.Triggered() {
			ev.WaitFn(op.fnCollect)
			return
		}
		if r := &op.res[op.next]; r.err != nil || r.down {
			c.fail(t, r.idx, r.err)
		} else {
			c.observe(t, r.idx, true)
		}
		op.next++
	}
	c.multiHist.Observe(t.Now().Sub(op.t0))
	op.finish()
}

// GetMultiT fetches many keys with one batched request per MCD, the legs
// in parallel. The keys are back to back in keys, key i ending at ends[i] —
// a borrow: each leg copies its share into its own request. k receives a
// slice aligned with ends, nil where a key missed. The items alias pooled
// storage and are valid only until k returns; continuation code copies what
// it keeps. Each MCD's batch is a pooled leg issuing one CallT: one
// scheduled event to start it, one to join it.
func (c *SimClient) GetMultiT(t *sim.Task, keys []byte, ends []int, k func([]*Item)) {
	op := c.multiOps.Pop()
	if op == nil {
		op = &multiGetOp{c: c, byServer: make([]*multiGetLeg, len(c.servers))}
		op.fnCollect = op.collect
		op.fnGot1 = op.got1
	}
	op.t, op.k = t, k
	if cap(op.out) < len(ends) {
		op.out = make([]*Item, len(ends))
		// Snapshots are pointed into: the backing array must never move
		// while a gather is appending to it.
		op.items = make([]Item, 0, len(ends))
	}
	op.out = op.out[:len(ends)]
	if len(ends) == 1 {
		getKeyT(c, t, keys[:ends[0]], op.fnGot1)
		return
	}
	op.t0 = t.Now()
	from := 0
	for j, end := range ends {
		key := keys[from:end]
		from = end
		i := c.routeRead(t, key)
		l := op.byServer[i]
		if l == nil {
			if l = c.legs.Pop(); l == nil {
				l = &multiGetLeg{c: c, t: c.node.Network().Env().ContextTask("mcd-get")}
				l.req.verb, l.req.owner = verbGet, l
				l.fnStart = l.start
				l.fnDone = l.done
			}
			op.byServer[i] = l
		}
		appendKey(&l.req.keys, key)
		l.pos = append(l.pos, j)
	}
	for i, l := range op.byServer { // deterministic order
		if l == nil {
			continue
		}
		op.byServer[i] = nil
		if !c.admitRead(t, i) {
			l.release() // ejected: every key an instant miss
			continue
		}
		l.op, l.n = op, len(op.res)
		op.res = append(op.res, legResult{idx: i})
		if len(op.evs) < len(op.res) {
			op.evs = append(op.evs, sim.NewEvent(t.Env()))
		}
		l.t.Start(l.fnStart)
		// The legs run on the operation's critical path: their spans nest
		// under the caller's current span.
		optrace.Fork(t, l.t)
	}
	op.collect()
}

// DeleteT removes a key from its MCD; k receives whether it was found. An
// ejected or unreachable MCD absorbs the delete without a wire request,
// per the documented fault-model boundary. With replication on, both
// copies are deleted in sequence.
func (c *SimClient) DeleteT(t *sim.Task, key string, k func(bool)) { deleteKeyT(c, t, key, k) }

// DeleteKeyT is DeleteT for a key lent as bytes, valid until k runs: each
// leg copies it into its request.
func (c *SimClient) DeleteKeyT(t *sim.Task, key []byte, k func(bool)) { deleteKeyT(c, t, key, k) }

func deleteKeyT[K string | []byte](c *SimClient, t *sim.Task, key K, k func(bool)) {
	idx := pick(c, key)
	next := replicaNext(c, key, idx)
	if next < 0 {
		delOnT(c, t, idx, key, k)
		return
	}
	delOnT(c, t, idx, key, func(found bool) {
		delOnT(c, t, next, key, func(found2 bool) { k(found || found2) })
	})
}

// delOnT runs one DeleteT leg against server idx.
func delOnT[K string | []byte](c *SimClient, t *sim.Task, idx int, key K, k func(bool)) {
	srv := c.servers[idx]
	sp := optrace.StartSpan(t, optrace.LayerMCD, verbDelete.String())
	sp.SetAttr("server", srv.node.Name())
	if !c.admit(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		k(false)
		return
	}
	op := c.takeOp(t, verbDelete)
	op.kDel = k
	appendKey(&op.req.keys, key)
	op.send(idx, sp)
}

// SetT stores value under key on its MCD; k receives the acknowledgement's
// error. The key is lent until k runs: each leg copies it into its request,
// and the daemon's store into its own key pages. With replication on, the
// replica leg runs after the primary leg and the primary's result is what k
// sees.
func (c *SimClient) SetT(t *sim.Task, key []byte, value blob.Blob, k func(error)) {
	setFreshT(c, t, key, value, nil, k)
}

// SetFreshT is SetT for a value that can go stale while the primary leg
// runs: unless fresh, when not nil, still holds as the primary leg
// returns, the replica leg deletes the key instead of storing it. A delete
// issued meanwhile has reached the replica already, so a later store would
// outlive it, and the copy the replica holds is older still.
func (c *SimClient) SetFreshT(t *sim.Task, key []byte, value blob.Blob, fresh func() bool, k func(error)) {
	setFreshT(c, t, key, value, fresh, k)
}

func setFreshT[K string | []byte](c *SimClient, t *sim.Task, key K, value blob.Blob, fresh func() bool, k func(error)) {
	idx := pick(c, key)
	next := replicaNext(c, key, idx)
	if next < 0 {
		setOnT(c, t, idx, key, value, k)
		return
	}
	setOnT(c, t, idx, key, value, func(err error) {
		if fresh != nil && !fresh() {
			delOnT(c, t, next, key, func(bool) { k(err) })
			return
		}
		setOnT(c, t, next, key, value, func(error) { k(err) })
	})
}

// setOnT runs one SetT leg against server idx.
func setOnT[K string | []byte](c *SimClient, t *sim.Task, idx int, key K, value blob.Blob, k func(error)) {
	srv := c.servers[idx]
	sp := optrace.StartSpan(t, optrace.LayerMCD, verbSet.String())
	sp.SetAttr("server", srv.node.Name())
	sp.SetAttrInt("bytes", value.Len())
	t0 := t.Now()
	if !c.admit(t, idx) {
		sp.SetAttr("result", "ejected")
		sp.End(t)
		c.setHist.Observe(t.Now().Sub(t0))
		k(ErrServerDown)
		return
	}
	op := c.takeOp(t, verbSet)
	op.kSet, op.t0 = k, t0
	appendKey(&op.req.keys, key)
	op.req.item = Item{Value: value}
	op.send(idx, sp)
}
