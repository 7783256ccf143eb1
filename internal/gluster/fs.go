// Package gluster implements a GlusterFS-like clustered file system on the
// simulation substrate.
//
// GlusterFS composes file systems out of stackable translators (xlators):
// each xlator implements the same operation set and wraps a child,
// transforming requests on the way down and results on the way up. This
// package provides the xlator interface (FS), the storage xlator (Posix,
// on the disk + page-cache models), the protocol pair (Client/Server, over
// the fabric), the namespace-distribution xlator (Distribute), and the
// FUSE-crossing cost model (Fuse). The IMCa translators CMCache and SMCache
// (internal/core) plug into the same stacks.
//
// The 2008 calibration of these xlators is a set of package constants —
// FuseOpCPU and FusePerByteCPUNanos for the FUSE crossing, ServerIOThreads,
// ServerOpCPU and ServerPerByteCPUNanos for glusterfsd, PageSize,
// ReadaheadBytes and MetaRegion for the brick file system — each charged
// where it is declared and listed in MODEL.md.
//
// All operations advance virtual time. Every xlator — this package's, and
// the IMCa, Lustre and NFS clients — implements each operation once, in
// continuation style (TaskFS), and derives the blocking FS methods from
// that (Blocking). Blocking-only wrappers — the fault oracle, the trace
// recorder — sit above a mount, as ordinary process code on top of FS.
package gluster

import (
	"errors"
	"fmt"

	"imca/internal/blob"
	"imca/internal/sim"
)

// FD is a file descriptor handle issued by Open/Create.
type FD int64

// Stat describes a file, mirroring the POSIX stat fields the paper's
// workloads consult (size and times; a producer/consumer polls Mtime).
type Stat struct {
	Path  string
	Ino   uint64
	Size  int64
	IsDir bool
	Atime sim.Time
	Mtime sim.Time
	Ctime sim.Time
}

// WireSize returns the encoded size of a stat structure.
func (s *Stat) WireSize() int64 { return 96 + int64(len(s.Path)) }

// File system errors. Protocol layers transport these by code.
var (
	ErrNotExist = errors.New("gluster: no such file or directory")
	ErrExist    = errors.New("gluster: file exists")
	ErrBadFD    = errors.New("gluster: bad file descriptor")
	ErrIsDir    = errors.New("gluster: is a directory")
	ErrNotDir   = errors.New("gluster: not a directory")
	// ErrInvalid reports a byte range no file can hold (see CheckRange):
	// pread, pwrite and ftruncate's EINVAL and EFBIG.
	ErrInvalid = errors.New("gluster: invalid offset or size")
	// ErrServerDown reports a brick whose daemon is failed (see
	// Server.Fail); the request was refused before touching storage.
	ErrServerDown = errors.New("gluster: server is down")
)

// MaxFileSize is the largest size a file can have, and so the end of the
// last byte range a client may name. It leaves the layers below headroom
// to add a file's device base to an offset, or round one up to a block or
// a page, inside an int64.
const MaxFileSize = 1 << 60

// CheckRange returns ErrInvalid unless [off, off+n) is a byte range a file
// can hold: neither negative nor ending past MaxFileSize. Every client's
// front door (Fuse, the Lustre and NFS clients) asks it before an operation
// spends an event, so the layers below see only valid ranges.
func CheckRange(off, n int64) error {
	if off < 0 || n < 0 || off > MaxFileSize-n {
		return ErrInvalid
	}
	return nil
}

// FS is the xlator interface: the operation set every translator
// implements. Methods must be called in simulated-process context; they
// block p for the operation's virtual duration.
type FS interface {
	// Create makes a new regular file and opens it.
	Create(p *sim.Proc, path string) (FD, error)
	// Open opens an existing regular file.
	Open(p *sim.Proc, path string) (FD, error)
	// Close releases a descriptor.
	Close(p *sim.Proc, fd FD) error
	// Read returns up to size bytes at off; short reads happen only at
	// end of file.
	Read(p *sim.Proc, fd FD, off, size int64) (blob.Blob, error)
	// Write stores data at off, extending the file if needed, and
	// returns the byte count written. Writes are persistent: they reach
	// the storage xlator (and its disk) before returning.
	Write(p *sim.Proc, fd FD, off int64, data blob.Blob) (int64, error)
	// Stat describes the file or directory at path.
	Stat(p *sim.Proc, path string) (*Stat, error)
	// Unlink removes a regular file.
	Unlink(p *sim.Proc, path string) error
	// Mkdir creates a directory (parents are created as needed).
	Mkdir(p *sim.Proc, path string) error
	// Readdir lists the names in a directory.
	Readdir(p *sim.Proc, path string) ([]string, error)
	// Truncate sets the file size.
	Truncate(p *sim.Proc, path string, size int64) error
}

// TaskFS is an xlator written in continuation style: every operation takes
// a sim.Task and a completion callback instead of blocking a process, and
// that is the xlator's only implementation — its blocking FS methods are
// the embedded Blocking adapter awaiting these. An xlator holds its
// children as TaskFS, so a whole stack is continuation-style and its
// operations run on any task: one started by Env.StartTask, a fabric
// frame's server-side actor, or one fronting a process (sim.Proc.Await).
//
// Results handed to a continuation are lent, not given: a *Stat may be a
// pooled frame's scratch, valid until the continuation returns.
type TaskFS interface {
	FS
	CreateT(t *sim.Task, path string, k func(FD, error))
	OpenT(t *sim.Task, path string, k func(FD, error))
	CloseT(t *sim.Task, fd FD, k func(error))
	ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error))
	WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error))
	StatT(t *sim.Task, path string, k func(*Stat, error))
	UnlinkT(t *sim.Task, path string, k func(error))
	MkdirT(t *sim.Task, path string, k func(error))
	ReaddirT(t *sim.Task, path string, k func([]string, error))
	TruncateT(t *sim.Task, path string, size int64, k func(error))
}

// AsTaskFS returns fs as a TaskFS, or nil when fs is a blocking-only
// wrapper.
func AsTaskFS(fs FS) TaskFS {
	tfs, _ := fs.(TaskFS)
	return tfs
}

// errCode converts an FS error to a compact wire code and back.
func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNotExist):
		return "ENOENT"
	case errors.Is(err, ErrExist):
		return "EEXIST"
	case errors.Is(err, ErrBadFD):
		return "EBADF"
	case errors.Is(err, ErrIsDir):
		return "EISDIR"
	case errors.Is(err, ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, ErrServerDown):
		return "EHOSTDOWN"
	default:
		return "EIO:" + err.Error()
	}
}

func codeErr(code string) error {
	switch code {
	case "":
		return nil
	case "ENOENT":
		return ErrNotExist
	case "EEXIST":
		return ErrExist
	case "EBADF":
		return ErrBadFD
	case "EISDIR":
		return ErrIsDir
	case "ENOTDIR":
		return ErrNotDir
	case "EHOSTDOWN":
		return ErrServerDown
	default:
		return fmt.Errorf("gluster: remote error %s", code)
	}
}
