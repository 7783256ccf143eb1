package gluster

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// ServiceName is the fabric service registered by the GlusterFS server
// daemon (glusterfsd).
const ServiceName = "glusterfsd"

// verb names an operation of the xlator interface. The RPC layers — Fuse,
// Client and Server, which treat every operation alike: charge, forward,
// answer — run all ten on their layer's one pooled frame. Posix runs stat,
// read and write on a frame and the rest inline, and CMCache and SMCache
// keep closures for the verbs they give logic of their own (purges, pushes,
// stat refreshes): there is no shared skeleton there for a frame to carry.
type verb uint8

const (
	verbCreate verb = iota
	verbOpen
	verbClose
	verbRead
	verbWrite
	verbStat
	verbUnlink
	verbMkdir
	verbTruncate
	verbReaddir
	numVerbs
)

// verbNames are the span names, the Server.Ops keys and, in this order, the
// daemon's registered counters.
var verbNames = [numVerbs]string{
	"create", "open", "close", "read", "write",
	"stat", "unlink", "mkdir", "truncate", "readdir",
}

func (v verb) String() string { return verbNames[v] }

// Fixed header bytes of each verb's request and response, approximating the
// real protocol's per-op headers.
var (
	reqHeader = [numVerbs]int64{
		verbCreate: 32, verbOpen: 32, verbClose: 16, verbRead: 32, verbWrite: 32,
		verbStat: 16, verbUnlink: 32, verbMkdir: 32, verbTruncate: 32, verbReaddir: 16,
	}
	respHeader = [numVerbs]int64{
		verbCreate: 16, verbOpen: 16, verbClose: 8, verbRead: 16, verbWrite: 16,
		verbStat: 16, verbUnlink: 8, verbMkdir: 8, verbTruncate: 8, verbReaddir: 16,
	}
)

// pooledMsg is embedded by both wire messages: a request lives in its
// clientOp, a response in its serverOp. The fabric recycles a request when
// the call's frame retires — for a call a cut link abandoned, after the
// daemon has finished reading it — and a delivered response after the
// caller's continuation returns; either returns the owning frame to its
// pool. A refused request's response is built outside any frame and leaves
// owner nil.
type pooledMsg struct{ owner interface{ release() } }

// Recycle implements fabric.Recyclable.
func (m *pooledMsg) Recycle() {
	if m.owner != nil {
		m.owner.release()
	}
}

// request is the protocol's one request message, and what Fuse and Server
// keep an operation's operands in: a verb and whichever of the fields below
// it takes.
type request struct {
	verb verb
	path string    // create, open, stat, unlink, mkdir, truncate, readdir
	fd   FD        // close, read, write
	off  int64     // read, write
	size int64     // read, truncate
	data blob.Blob // write
	pooledMsg
}

// WireSize implements fabric.Msg.
func (r *request) WireSize() int64 {
	return reqHeader[r.verb] + int64(len(r.path)) + r.data.Len()
}

// response is the protocol's one response message: an error code and
// whichever result the verb has. data, st and names are lent to the caller's
// continuation: copy out what outlives it.
type response struct {
	verb  verb
	code  string
	fd    FD        // create, open
	n     int64     // write
	data  blob.Blob // read
	st    Stat      // stat, when code is empty: the daemon's copy of what its stack lent it
	names []string  // readdir
	pooledMsg
}

// WireSize implements fabric.Msg.
func (r *response) WireSize() int64 {
	n := respHeader[r.verb] + int64(len(r.code)) + r.data.Len()
	if r.verb == verbStat && r.code == "" {
		n += r.st.WireSize()
	}
	for _, s := range r.names {
		n += int64(len(s)) + 8
	}
	return n
}

// conts holds one continuation per result shape an operation can have.
type conts struct {
	fd    func(FD, error)        // create, open
	err   func(error)            // close, unlink, mkdir, truncate
	data  func(blob.Blob, error) // read
	n     func(int64, error)     // write
	stat  func(*Stat, error)     // stat
	names func([]string, error)  // readdir
}

// sink is a frame that runs operations on a child xlator and receives their
// results: one method per result shape.
type sink interface {
	gotFD(FD, error)
	gotErr(error)
	gotData(blob.Blob, error)
	gotN(int64, error)
	gotStat(*Stat, error)
	gotNames([]string, error)
}

// down runs r on child with s receiving the result. fn is s's own set of
// method values, each bound the first time the frame serves a verb of that
// shape, so a mount that only stats binds one.
func (fn *conts) down(s sink, child TaskFS, t *sim.Task, r *request) {
	switch r.verb {
	case verbCreate, verbOpen:
		if fn.fd == nil {
			fn.fd = s.gotFD
		}
		if r.verb == verbCreate {
			child.CreateT(t, r.path, fn.fd)
		} else {
			child.OpenT(t, r.path, fn.fd)
		}
	case verbRead:
		if fn.data == nil {
			fn.data = s.gotData
		}
		child.ReadT(t, r.fd, r.off, r.size, fn.data)
	case verbWrite:
		if fn.n == nil {
			fn.n = s.gotN
		}
		child.WriteT(t, r.fd, r.off, r.data, fn.n)
	case verbStat:
		if fn.stat == nil {
			fn.stat = s.gotStat
		}
		child.StatT(t, r.path, fn.stat)
	case verbReaddir:
		if fn.names == nil {
			fn.names = s.gotNames
		}
		child.ReaddirT(t, r.path, fn.names)
	default:
		if fn.err == nil {
			fn.err = s.gotErr
		}
		switch r.verb {
		case verbClose:
			child.CloseT(t, r.fd, fn.err)
		case verbUnlink:
			child.UnlinkT(t, r.path, fn.err)
		case verbMkdir:
			child.MkdirT(t, r.path, fn.err)
		default:
			child.TruncateT(t, r.path, r.size, fn.err)
		}
	}
}
