package memcache

import (
	"time"

	"imca/internal/sim"
)

// ServiceName is the fabric service the simulated MCD registers.
const ServiceName = "mcd"

// Simulated per-operation service costs for a 2008-era memcached: command
// parsing + hash lookup + slab bookkeeping per key, plus a copy cost per
// byte moved in or out of the cache, served by one event loop.
const (
	PerKeyServiceTime sim.Duration = 6 * time.Microsecond
	// PerByteCopyNanos models ~2 GB/s memory copies (0.5 ns/byte).
	PerByteCopyNanos = 0.5
	// DaemonThreads is how many requests a daemon serves at once:
	// memcached 1.2 ran a single event loop.
	DaemonThreads = 1
)

func copyTime(n int64) sim.Duration {
	return sim.Duration(float64(n) * PerByteCopyNanos)
}

// request is the simulated protocol's one request message, of one of three
// verbs: a get of keys, a set of item (always unconditional, as IMCa uses),
// or a delete of the one key in keys. It lives inside a client-side frame —
// a bankOp, or one leg of a multi-key get — and the fabric recycles it when
// the call's frame retires, which is what returns the owner to its pool.
// WireSize values approximate the text protocol's framing.
type request struct {
	verb verb
	keys keyList
	item Item

	owner interface{ release() }
}

// Recycle implements fabric.Recyclable.
func (r *request) Recycle() { r.owner.release() }

// WireSize implements fabric.Msg.
func (r *request) WireSize() int64 {
	switch r.verb {
	case verbSet:
		return int64(len(r.item.Key)) + r.item.Value.Len() + 40
	case verbDelete:
		return 8 + int64(len(r.keys.buf))
	}
	return 8 + int64(len(r.keys.buf)+len(r.keys.ends))
}

// keyList is a get's keys back to back in one byte buffer, with the end of
// each key in it. A request owns its list: the client copies the caller's
// keys in, the daemon hashes and looks up the bytes in place, and both
// slices keep their capacity across the pooled request's lives. Because a
// request returns to its pool only when the fabric recycles it, the bytes
// cannot be rewritten while a daemon — or a leg a cut link abandoned — can
// still read them.
type keyList struct {
	buf  []byte
	ends []int
}

// appendKey adds key, held as a string or as bytes, to l.
func appendKey[K string | []byte](l *keyList, key K) {
	// Amortised growth: a pooled request's key list keeps its capacity, so
	// it grows only to the longest key list that request has carried.
	l.buf = append(l.buf, key...)
	l.ends = append(l.ends, len(l.buf))
}

func (l *keyList) len() int { return len(l.ends) }

// at returns key i, a borrow of the list's buffer.
func (l *keyList) at(i int) []byte {
	from := 0
	if i > 0 {
		from = l.ends[i-1]
	}
	return l.buf[from:l.ends[i]]
}

// reset empties the list for its request's next life. Under sim.SetPoison
// the old bytes are overwritten first, so a reader that outlived the
// request looks up keys no one stored instead of quietly reading the next
// call's.
func (l *keyList) reset() {
	if sim.Poison() {
		for i := range l.buf {
			l.buf[i] = 0xff
		}
	}
	l.buf, l.ends = l.buf[:0], l.ends[:0]
}

// flatKeys lays keys out the way GetMultiT takes them: back to back, with
// the end of each.
func flatKeys(keys []string) ([]byte, []int) {
	var l keyList
	for _, k := range keys {
		appendKey(&l, k)
	}
	return l.buf, l.ends
}

// response is the protocol's one response message: the items a get found,
// the store's refusal of a set ("" when stored), or whether a delete found
// its key. down reports that the daemon is dead (connection refused); the
// caller treats a get as all misses and a mutation as dropped. A pooled
// response (op non-nil) belongs to a server-side srvOp and its items point
// into that op's buffers: valid through the continuation that receives it,
// reclaimed when the fabric recycles the response.
type response struct {
	items []*Item
	err   string
	found bool
	down  bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *response) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg: a fixed header, each item found, and the
// refusal text — a verb's reply carries only its own part.
func (r *response) WireSize() int64 {
	n := 8 + int64(len(r.err))
	for _, it := range r.items {
		n += int64(len(it.Key)) + it.Value.Len() + 40
	}
	return n
}
