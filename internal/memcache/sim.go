package memcache

import (
	"time"

	"imca/internal/sim"
)

// ServiceName is the fabric service the simulated MCD registers.
const ServiceName = "mcd"

// Simulated per-operation service costs for a 2008-era memcached: command
// parsing + hash lookup + slab bookkeeping per key, plus a copy cost per
// byte moved in or out of the cache.
const (
	perKeyServiceTime = 6 * time.Microsecond
	// perByteCopyNanos models ~2 GB/s memory copies (0.5 ns/byte).
	perByteCopyNanos = 0.5
)

func copyTime(n int64) sim.Duration {
	return sim.Duration(float64(n) * perByteCopyNanos)
}

// Wire message types for the simulated memcached protocol. WireSize values
// approximate the text protocol's framing.

// GetReq requests one or more keys. A pooled request (op non-nil) belongs
// to a client-side frame — a getOp, or one leg of a multi-key get; the
// fabric recycles it when the call's frame retires, which is what returns
// the frame to its pool.
type GetReq struct {
	Keys []string

	op interface{ release() }
}

// Recycle implements fabric.Recyclable.
func (r *GetReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *GetReq) WireSize() int64 {
	n := int64(8)
	for _, k := range r.Keys {
		n += int64(len(k)) + 1
	}
	return n
}

// GetResp carries the found items. Down reports that the daemon is dead
// (connection refused); the caller treats every key as a miss. A pooled
// response (op non-nil) belongs to a server-side srvOp and its Items point
// into that op's buffers: valid through the continuation that receives it,
// reclaimed when the fabric recycles the response.
type GetResp struct {
	Items []*Item
	Down  bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *GetResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *GetResp) WireSize() int64 {
	n := int64(8)
	for _, it := range r.Items {
		n += int64(len(it.Key)) + it.Value.Len() + 40
	}
	return n
}

// SetReq stores one item (always an unconditional set, as IMCa uses).
// Pooled requests carry their client-side setOp, as GetReq does.
type SetReq struct {
	Item *Item

	op *setOp
}

// Recycle implements fabric.Recyclable.
func (r *SetReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *SetReq) WireSize() int64 {
	return int64(len(r.Item.Key)) + r.Item.Value.Len() + 40
}

// SetResp acknowledges a store. Pooled responses carry their srvOp, as
// GetResp does.
type SetResp struct {
	Err  string
	Down bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *SetResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *SetResp) WireSize() int64 { return 8 + int64(len(r.Err)) }

// DelReq deletes one key. Pooled requests carry their client-side delOp.
type DelReq struct {
	Key string

	op *delOp
}

// Recycle implements fabric.Recyclable.
func (r *DelReq) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *DelReq) WireSize() int64 { return 8 + int64(len(r.Key)) }

// DelResp acknowledges a delete. Pooled responses carry their srvOp.
type DelResp struct {
	Found bool
	Down  bool

	op *srvOp
}

// Recycle implements fabric.Recyclable.
func (r *DelResp) Recycle() {
	if r.op != nil {
		r.op.release()
	}
}

// WireSize implements fabric.Msg.
func (r *DelResp) WireSize() int64 { return 8 }
