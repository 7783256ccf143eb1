package gluster

import (
	"imca/internal/blob"
	"imca/internal/fabric"
)

// ServiceName is the fabric service registered by the GlusterFS server
// daemon (glusterfsd).
const ServiceName = "glusterfsd"

// verb names the three operations every layer runs on a pooled frame — the
// ones workloads issue by the hundred thousand. The rest (open, close,
// unlink, mkdir, readdir, truncate) stay on closures.
type verb uint8

const (
	verbStat verb = iota
	verbRead
	verbWrite
)

var verbNames = [...]string{verbStat: "stat", verbRead: "read", verbWrite: "write"}

func (v verb) String() string { return verbNames[v] }

// Wire messages for the GlusterFS protocol. Sizes approximate the real
// protocol's per-op headers.

// pooledMsg is embedded by the messages that live inside a pooled frame: a
// stat, read or write request in its clientOp, the response in its
// serverOp. The fabric recycles a request when the call's frame retires —
// for a deadline-abandoned call, after the daemon has finished reading it —
// and a delivered response after the caller's continuation returns; either
// returns the owning frame to its pool. Messages built outside a frame (a
// refused request's response) leave owner nil.
type pooledMsg struct{ owner interface{ release() } }

// Recycle implements fabric.Recyclable.
func (m *pooledMsg) Recycle() {
	if m.owner != nil {
		m.owner.release()
	}
}

type openReq struct {
	Path   string
	Create bool
}

func (r *openReq) WireSize() int64 { return 32 + int64(len(r.Path)) }

type openResp struct {
	FD   FD
	Code string
}

func (r *openResp) WireSize() int64 { return 16 + int64(len(r.Code)) }

type closeReq struct{ FD FD }

func (r *closeReq) WireSize() int64 { return 16 }

type readReq struct {
	FD        FD
	Off, Size int64
	pooledMsg
}

func (r *readReq) WireSize() int64 { return 32 }

// readResp lends Data to the caller's continuation: copy the value out
// before returning.
type readResp struct {
	Data blob.Blob
	Code string
	pooledMsg
}

func (r *readResp) WireSize() int64 { return 16 + r.Data.Len() + int64(len(r.Code)) }

type writeReq struct {
	FD   FD
	Off  int64
	Data blob.Blob
	pooledMsg
}

func (r *writeReq) WireSize() int64 { return 32 + r.Data.Len() }

type writeResp struct {
	N    int64
	Code string
	pooledMsg
}

func (r *writeResp) WireSize() int64 { return 16 + int64(len(r.Code)) }

type statReq struct {
	Path string
	pooledMsg
}

func (r *statReq) WireSize() int64 { return 16 + int64(len(r.Path)) }

type statResp struct {
	St   *Stat
	Code string
	pooledMsg
}

func (r *statResp) WireSize() int64 {
	n := int64(16 + len(r.Code))
	if r.St != nil {
		n += r.St.WireSize()
	}
	return n
}

type pathReq struct {
	Op   string // "unlink" | "mkdir" | "truncate"
	Path string
	Size int64 // truncate only
}

func (r *pathReq) WireSize() int64 { return 32 + int64(len(r.Path)) }

type simpleResp struct{ Code string }

func (r *simpleResp) WireSize() int64 { return 8 + int64(len(r.Code)) }

type readdirReq struct{ Path string }

func (r *readdirReq) WireSize() int64 { return 16 + int64(len(r.Path)) }

type readdirResp struct {
	Names []string
	Code  string
}

func (r *readdirResp) WireSize() int64 {
	n := int64(16 + len(r.Code))
	for _, s := range r.Names {
		n += int64(len(s)) + 8
	}
	return n
}

var (
	_ fabric.Msg = (*openReq)(nil)
	_ fabric.Msg = (*readResp)(nil)
)
