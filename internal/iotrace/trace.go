// Package iotrace records file system operation streams and replays them
// against any mount. Record a workload once (or import a trace from
// elsewhere), then replay it against NoCache, IMCa, or Lustre deployments
// to compare configurations on identical operation sequences — the
// methodology production storage evaluations use when synthetic benchmarks
// are not representative.
//
// A trace is client-partitioned: per-client operation order is preserved
// exactly on replay, and all clients start together. A recorded trace
// carries no think times, so its cross-client interleaving is reproduced
// only approximately: each client issues its next operation the instant the
// previous one completes, at the replay deployment's speed. A trace that
// carries sleep records fixes each client's think times, so its interleaving
// on a given deployment is exact (replay is deterministic); the fault
// package's fuzz builds its multi-client schedules that way.
package iotrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Kind enumerates recordable operations.
type Kind string

// Operation kinds.
const (
	OpCreate   Kind = "create"
	OpOpen     Kind = "open"
	OpClose    Kind = "close"
	OpRead     Kind = "read"
	OpWrite    Kind = "write"
	OpStat     Kind = "stat"
	OpUnlink   Kind = "unlink"
	OpMkdir    Kind = "mkdir"
	OpReaddir  Kind = "readdir"
	OpTruncate Kind = "truncate"
	// OpSleep is think time: the client idles for Size nanoseconds.
	OpSleep Kind = "sleep"
)

// Op is one recorded operation. Reads and writes are positional; file
// identity is by path (descriptors are reconstructed on replay). Write
// payloads are regenerated synthetically from Seed, so traces stay tiny.
type Op struct {
	Client int
	Kind   Kind
	Path   string
	Off    int64
	Size   int64
	Seed   uint64
}

// Trace is an ordered operation list (global order = record order).
type Trace struct {
	Ops []Op
}

// PerClient splits the trace preserving each client's order.
func (t *Trace) PerClient() map[int][]Op {
	out := make(map[int][]Op)
	for _, op := range t.Ops {
		out[op.Client] = append(out[op.Client], op)
	}
	return out
}

// Encode writes the trace in a line-oriented text format:
//
//	<client> <kind> <path> <off> <size> <seed>
//
// An empty path (a sleep's) is written as "-".
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Ops {
		if strings.ContainsAny(op.Path, " \n") {
			return fmt.Errorf("trace: path %q contains separators", op.Path)
		}
		path := op.Path
		if path == "" {
			path = "-"
		}
		if _, err := fmt.Fprintf(bw, "%d %s %s %d %d %d\n",
			op.Client, op.Kind, path, op.Off, op.Size, op.Seed); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a trace written by Encode. Blank lines and '#' comments
// are ignored.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 {
			return nil, fmt.Errorf("trace: line %d: want 6 fields, got %d", lineNo, len(f))
		}
		client, err1 := strconv.Atoi(f[0])
		off, err2 := strconv.ParseInt(f[3], 10, 64)
		size, err3 := strconv.ParseInt(f[4], 10, 64)
		seed, err4 := strconv.ParseUint(f[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("trace: line %d: bad numbers", lineNo)
		}
		path := f[2]
		if path == "-" {
			path = ""
		}
		t.Ops = append(t.Ops, Op{
			Client: client, Kind: Kind(f[1]), Path: path,
			Off: off, Size: size, Seed: seed,
		})
	}
	return t, sc.Err()
}

// Recorder wraps a mount and appends every operation to a shared Trace.
type Recorder struct {
	child  gluster.FS
	trace  *Trace
	client int
	paths  map[gluster.FD]string
}

var _ gluster.FS = (*Recorder)(nil)

// NewRecorder wraps child; operations are appended to trace tagged with
// the client id.
func NewRecorder(child gluster.FS, trace *Trace, client int) *Recorder {
	return &Recorder{child: child, trace: trace, client: client, paths: make(map[gluster.FD]string)}
}

func (r *Recorder) log(kind Kind, path string, off, size int64, seed uint64) {
	r.trace.Ops = append(r.trace.Ops, Op{
		Client: r.client, Kind: kind, Path: path, Off: off, Size: size, Seed: seed,
	})
}

// Create implements gluster.FS.
func (r *Recorder) Create(p *sim.Proc, path string) (gluster.FD, error) {
	fd, err := r.child.Create(p, path)
	if err == nil {
		r.paths[fd] = path
		r.log(OpCreate, path, 0, 0, 0)
	}
	return fd, err
}

// Open implements gluster.FS.
func (r *Recorder) Open(p *sim.Proc, path string) (gluster.FD, error) {
	fd, err := r.child.Open(p, path)
	if err == nil {
		r.paths[fd] = path
		r.log(OpOpen, path, 0, 0, 0)
	}
	return fd, err
}

// Close implements gluster.FS.
func (r *Recorder) Close(p *sim.Proc, fd gluster.FD) error {
	if path, ok := r.paths[fd]; ok {
		r.log(OpClose, path, 0, 0, 0)
		delete(r.paths, fd)
	}
	return r.child.Close(p, fd)
}

// Read implements gluster.FS.
func (r *Recorder) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	data, err := r.child.Read(p, fd, off, size)
	if err == nil {
		if path, ok := r.paths[fd]; ok {
			r.log(OpRead, path, off, size, 0)
		}
	}
	return data, err
}

// Write implements gluster.FS. The payload's identity is reduced to a
// seed; replay regenerates equivalent synthetic bytes.
func (r *Recorder) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	n, err := r.child.Write(p, fd, off, data)
	if err == nil {
		if path, ok := r.paths[fd]; ok {
			r.log(OpWrite, path, off, data.Len(), data.Checksum())
		}
	}
	return n, err
}

// Stat implements gluster.FS.
func (r *Recorder) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	st, err := r.child.Stat(p, path)
	if err == nil {
		r.log(OpStat, path, 0, 0, 0)
	}
	return st, err
}

// Unlink implements gluster.FS.
func (r *Recorder) Unlink(p *sim.Proc, path string) error {
	err := r.child.Unlink(p, path)
	if err == nil {
		r.log(OpUnlink, path, 0, 0, 0)
	}
	return err
}

// Mkdir implements gluster.FS.
func (r *Recorder) Mkdir(p *sim.Proc, path string) error {
	err := r.child.Mkdir(p, path)
	if err == nil {
		r.log(OpMkdir, path, 0, 0, 0)
	}
	return err
}

// Readdir implements gluster.FS.
func (r *Recorder) Readdir(p *sim.Proc, path string) ([]string, error) {
	names, err := r.child.Readdir(p, path)
	if err == nil {
		r.log(OpReaddir, path, 0, 0, 0)
	}
	return names, err
}

// Truncate implements gluster.FS.
func (r *Recorder) Truncate(p *sim.Proc, path string, size int64) error {
	err := r.child.Truncate(p, path, size)
	if err == nil {
		r.log(OpTruncate, path, 0, size, 0)
	}
	return err
}

// Result summarizes a replay.
type Result struct {
	// Elapsed is the span from the common start until the last client
	// finishes.
	Elapsed sim.Duration
	// OpCounts and OpTime aggregate per kind across clients.
	OpCounts map[Kind]int
	OpTime   map[Kind]sim.Duration
	// Errors counts operations that failed on replay (e.g. a stat of a
	// file another client had not yet created, due to loose cross-client
	// ordering).
	Errors int
}

// AvgOp returns the mean latency for one operation kind.
func (r *Result) AvgOp(k Kind) sim.Duration {
	if r.OpCounts[k] == 0 {
		return 0
	}
	return r.OpTime[k] / sim.Duration(r.OpCounts[k])
}

// Replay runs the trace against mounts (one per client id; ids beyond
// len(mounts) are mapped modulo). Per-client order is exact; clients start
// together.
func Replay(env *sim.Env, mounts []gluster.FS, t *Trace) *Result {
	res := &Result{
		OpCounts: make(map[Kind]int),
		OpTime:   make(map[Kind]sim.Duration),
	}
	per := t.PerClient()
	if len(per) == 0 {
		return res
	}
	// Spawn replay processes in sorted client order: process creation
	// order feeds event sequence numbers, so iterating the map here would
	// make two replays of the same trace interleave differently.
	clients := make([]int, 0, len(per))
	for client := range per {
		clients = append(clients, client)
	}
	sort.Ints(clients)
	bar := sim.NewBarrier(env, len(per))
	var start, end sim.Time
	started := false
	for _, client := range clients {
		ops := per[client]
		fs := mounts[client%len(mounts)]
		env.Process(fmt.Sprintf("replay-%d", client), func(p *sim.Proc) {
			fds := make(map[string]gluster.FD)
			bar.Wait(p)
			if !started {
				started = true
				start = p.Now()
			}
			for _, op := range ops {
				t0 := p.Now()
				err := applyOp(p, fs, fds, op)
				res.OpCounts[op.Kind]++
				res.OpTime[op.Kind] += p.Now().Sub(t0)
				if err != nil {
					res.Errors++
				}
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	env.Run()
	res.Elapsed = end.Sub(start)
	return res
}

func applyOp(p *sim.Proc, fs gluster.FS, fds map[string]gluster.FD, op Op) error {
	ensureFD := func() (gluster.FD, error) {
		if fd, ok := fds[op.Path]; ok {
			return fd, nil
		}
		fd, err := fs.Open(p, op.Path)
		if err != nil {
			return 0, err
		}
		fds[op.Path] = fd
		return fd, nil
	}
	switch op.Kind {
	case OpCreate:
		fd, err := fs.Create(p, op.Path)
		if err != nil {
			return err
		}
		fds[op.Path] = fd
		return nil
	case OpOpen:
		fd, err := fs.Open(p, op.Path)
		if err != nil {
			return err
		}
		fds[op.Path] = fd
		return nil
	case OpClose:
		fd, ok := fds[op.Path]
		if !ok {
			return gluster.ErrBadFD
		}
		delete(fds, op.Path)
		return fs.Close(p, fd)
	case OpRead:
		fd, err := ensureFD()
		if err != nil {
			return err
		}
		_, err = fs.Read(p, fd, op.Off, op.Size)
		return err
	case OpWrite:
		fd, err := ensureFD()
		if err != nil {
			return err
		}
		_, err = fs.Write(p, fd, op.Off, blob.Synthetic(op.Seed|1, op.Off, op.Size))
		return err
	case OpStat:
		_, err := fs.Stat(p, op.Path)
		return err
	case OpUnlink:
		return fs.Unlink(p, op.Path)
	case OpMkdir:
		return fs.Mkdir(p, op.Path)
	case OpReaddir:
		_, err := fs.Readdir(p, op.Path)
		return err
	case OpTruncate:
		return fs.Truncate(p, op.Path, op.Size)
	case OpSleep:
		p.Sleep(sim.Duration(op.Size))
		return nil
	default:
		return fmt.Errorf("trace: unknown op kind %q", op.Kind)
	}
}
