package fault

import (
	"fmt"
	"slices"

	"imca/internal/blob"
	"imca/internal/flight"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// Oracle checks the paper's §4.4 correctness argument at runtime, across
// every mount of a deployment: because writes are persistent at the server
// before they are acknowledged, losing any part of the cache bank may cost
// performance but never data. Each mount's traffic goes through its own
// view (Mount), and the oracle keeps one history per path of every
// mutation any mount issued — write, truncate, create, unlink — with the
// virtual interval [start, end] it ran over (host memory, costing no
// virtual time). It judges every read, stat and open by the
// regular-register rule, applied to each byte's value, to where the file
// ends, and to whether it exists:
//
//   - a value is legal if some acknowledged mutation leaves it there (a
//     write its bytes and a file reaching past them, a truncate its end and
//     zeros past it, a create an empty file, an unlink none), and that
//     mutation either overlaps the read's [start, end] or completed before
//     the read started without being superseded;
//   - a mutation is superseded at a byte by another that sets the byte,
//     started after it completed, and completed before the read started.
//
// With one mount nothing overlaps, so the rule is a single shadow of each
// file: the latest mutation decides. A violation is a stale read or stat (a
// value no legal mutation leaves there), a lost write (a file or bytes the
// history requires, gone) or a lost unlink. A descriptor an unlink may have
// orphaned names a file the path may no longer name: reads through it are
// not judged, and writes through it are weak — legal, but superseding
// nothing — or, once the orphaning is certain, not recorded.
//
// The oracle assumes a failed operation did not apply, which holds for the
// fault kinds the fuzz injects (MCD crashes, client↔MCD link faults, disk
// slowdowns, and brick outages — brick refusals happen before storage is
// touched). Faults that drop a server's acknowledgement after the write
// applied would need a weaker rule and are out of scope.
type Oracle struct {
	mounts     []*mount
	files      map[string][]*mutation // per path, in the order they began
	violations []string

	// Audit counters: how many operations the oracle actually judged (an
	// oracle that checks nothing reports zero violations too), how many
	// mutations it recorded, and how many reads overlapped a mutation
	// issued by another mount — the interleavings only N mounts produce.
	readChecks, statChecks, mutations, crossReads uint64

	// fr, when attached, records a flight entry per violation so a dump
	// shows what the cluster was doing when the invariant broke.
	fr *flight.Recorder
}

// mount is one child's view of the oracle, with its own descriptor table.
type mount struct {
	o     *Oracle
	i     int
	child gluster.FS
	fds   map[gluster.FD]desc // every descriptor open on the mount
}

// desc is an open descriptor: the path it was opened by and the interval
// the open (or create) ran over.
type desc struct {
	path   string
	os, oe sim.Time
}

var _ gluster.FS = (*mount)(nil)

// NewOracle wraps each child (at least one) — one mount of a deployment
// each, above its FUSE layer. Route each mount's whole workload through
// Mount(i); files that bypass the oracle are not tracked.
func NewOracle(children ...gluster.FS) *Oracle {
	o := &Oracle{files: make(map[string][]*mutation)}
	for i, child := range children {
		o.mounts = append(o.mounts, &mount{o: o, i: i, child: child, fds: make(map[gluster.FD]desc)})
	}
	return o
}

// Mount returns mount i's view: a gluster.FS over its child that reports
// every operation to the shared history.
func (o *Oracle) Mount(i int) gluster.FS { return o.mounts[i] }

// Violations returns every invariant violation observed so far.
func (o *Oracle) Violations() []string { return o.violations }

// SetFlight attaches a flight recorder; each violation appends one record.
func (o *Oracle) SetFlight(rec *flight.Recorder) { o.fr = rec }

func (o *Oracle) violate(p *sim.Proc, format string, args ...interface{}) {
	msg := fmt.Sprintf("t=%v: ", p.Now()) + fmt.Sprintf(format, args...)
	o.violations = append(o.violations, msg)
	o.fr.Append(p.Now(), flight.KindViolation, "oracle", msg, int64(len(o.violations)))
}

type mutKind uint8

const (
	mutWrite mutKind = iota
	mutTruncate
	mutCreate
	mutUnlink
)

// mutation is one operation that changes a path: what it does, which mount
// issued it, and the interval it ran over (end is meaningful once done). A
// weak mutation may not have applied to the path's file at all — a write
// through a descriptor an unlink may have orphaned — so it supersedes
// nothing.
type mutation struct {
	kind       mutKind
	mount      int
	start, end sim.Time
	done, weak bool
	off        int64  // a write's offset, a truncate's size
	data       []byte // a write's bytes
}

// A register is one fact about a file that mutations set: whether it
// exists, whether byte i lies inside it, or byte i's value. Values are
// 0/1 for the first two and the byte for the third; before any mutation
// every register holds 0 (no file).
type regKind uint8

const (
	regExists regKind = iota
	regPresent
	regData
)

type reg struct {
	kind regKind
	i    int64
}

// leaves reports whether m sets register r, and the value it leaves there.
func (m *mutation) leaves(r reg) (v int, ok bool) {
	switch m.kind {
	case mutCreate:
		if r.kind == regExists {
			return 1, true
		}
		return 0, true
	case mutUnlink:
		return 0, true
	case mutTruncate:
		switch r.kind {
		case regPresent:
			if r.i < m.off {
				return 1, true
			}
			return 0, true
		case regData:
			return 0, r.i >= m.off
		}
	case mutWrite:
		end := m.off + int64(len(m.data))
		switch r.kind {
		case regPresent:
			return 1, r.i < end
		case regData:
			if r.i >= m.off && r.i < end {
				return int(m.data[r.i-m.off]), true
			}
		}
	}
	return 0, false
}

// legal returns the mutations whose value at r an observation over
// [rs, re] may return, and whether the initial no-file state may.
func legal(muts []*mutation, r reg, rs, re sim.Time) (ms []*mutation, initial bool) {
	initial = true
	for i, m := range muts {
		if _, ok := m.leaves(r); !ok || m.start >= re {
			continue
		}
		if !m.done || m.end > rs {
			ms = append(ms, m) // overlaps the observation
			continue
		}
		initial = initial && m.weak
		if !superseded(muts, i, r, rs) {
			ms = append(ms, m)
		}
	}
	return ms, initial
}

// superseded reports whether another mutation that sets r began after
// muts[i] completed (at the same instant: was issued after it) and itself
// completed by rs.
func superseded(muts []*mutation, i int, r reg, rs sim.Time) bool {
	m := muts[i]
	for j, n := range muts {
		if _, ok := n.leaves(r); ok && j != i && n.done && !n.weak && n.end <= rs &&
			(n.start > m.end || n.start == m.end && j > i) {
			return true
		}
	}
	return false
}

// allows reports whether v is a legal value of r for an observation over
// [rs, now].
func (o *Oracle) allows(p *sim.Proc, path string, r reg, v int, rs sim.Time) bool {
	ms, initial := legal(o.files[path], r, rs, p.Now())
	return holds(ms, initial, r, v)
}

// holds reports whether one of ms, or the no-file state when initial, leaves
// v at r.
func holds(ms []*mutation, initial bool, r reg, v int) bool {
	if initial && v == 0 {
		return true
	}
	for _, m := range ms {
		if w, _ := m.leaves(r); w == v {
			return true
		}
	}
	return false
}

// begin records a mutation of path by mount i as it is issued; end settles
// it once the child returns.
func (o *Oracle) begin(p *sim.Proc, path string, i int, kind mutKind, off int64, data []byte) *mutation {
	m := &mutation{kind: kind, mount: i, start: p.Now(), off: off, data: data}
	o.files[path] = append(o.files[path], m)
	return m
}

// end marks m acknowledged, or — it failed, so it did not apply — forgets it.
func (o *Oracle) end(p *sim.Proc, path string, m *mutation, ok bool) {
	if !ok {
		o.files[path] = slices.DeleteFunc(o.files[path], func(n *mutation) bool { return n == m })
		return
	}
	m.done, m.end = true, p.Now()
	o.mutations++
}

// certain reports whether d names the file its path names throughout
// [d.os, now]: no unlink of the path overlapped that span.
func (o *Oracle) certain(p *sim.Proc, d desc) bool {
	for _, u := range o.files[d.path] {
		if u.kind == mutUnlink && u.start < p.Now() && (!u.done || u.end > d.os) {
			return false
		}
	}
	return true
}

// gone reports whether d names a file its path no longer does by start: an
// unlink issued after d was opened has completed.
func (o *Oracle) gone(d desc, start sim.Time) bool {
	for _, u := range o.files[d.path] {
		if u.kind == mutUnlink && u.done && u.start >= d.oe && u.end <= start {
			return true
		}
	}
	return false
}

// Create implements gluster.FS.
func (m *mount) Create(p *sim.Proc, path string) (gluster.FD, error) {
	mu := m.o.begin(p, path, m.i, mutCreate, 0, nil)
	fd, err := m.child.Create(p, path)
	m.o.end(p, path, mu, err == nil)
	if err == nil {
		m.fds[fd] = desc{path, mu.start, p.Now()}
	}
	return fd, err
}

// Open implements gluster.FS: the file must exist, or not, as the history
// allows.
func (m *mount) Open(p *sim.Proc, path string) (gluster.FD, error) {
	start := p.Now()
	fd, err := m.child.Open(p, path)
	switch {
	case err == nil:
		if !m.o.allows(p, path, reg{kind: regExists}, 1, start) {
			m.o.violate(p, "open %q on mount %d succeeded, but no legal mutation leaves the file there (lost unlink?)", path, m.i)
		}
		m.fds[fd] = desc{path, start, p.Now()}
	case err == gluster.ErrNotExist:
		if !m.o.allows(p, path, reg{kind: regExists}, 0, start) {
			m.o.violate(p, "open %q on mount %d: file lost", path, m.i)
		}
	}
	return fd, err
}

// Close implements gluster.FS.
func (m *mount) Close(p *sim.Proc, fd gluster.FD) error {
	err := m.child.Close(p, fd)
	if err == nil {
		delete(m.fds, fd)
	}
	return err
}

// Read implements gluster.FS: a successful read through a descriptor that
// certainly names its path's file is judged byte by byte, and where it
// ends. (POSIX keeps an unlinked file readable through the descriptors open
// on it, but it is no longer the file the path names.)
func (m *mount) Read(p *sim.Proc, fd gluster.FD, off, size int64) (blob.Blob, error) {
	start := p.Now()
	data, err := m.child.Read(p, fd, off, size)
	if d, ok := m.fds[fd]; ok && err == nil && m.o.certain(p, d) {
		m.o.judgeRead(p, m.i, d.path, off, size, data.Bytes(), start)
	}
	return data, err
}

// judgeRead checks a read of [off, off+size) over [rs, now] that returned
// got, reporting the first value no legal mutation leaves there.
func (o *Oracle) judgeRead(p *sim.Proc, i int, path string, off, size int64, got []byte, rs sim.Time) {
	o.readChecks++
	muts := o.files[path]
	for _, m := range muts {
		if m.mount != i && m.start < p.Now() && (!m.done || m.end > rs) {
			o.crossReads++
			break
		}
	}
	n := int64(len(got))
	if n < size && !o.allows(p, path, reg{regPresent, off + n}, 0, rs) {
		o.violate(p, "stale read %q [%d,+%d) on mount %d: %d bytes, but no legal mutation ends the file at %d (lost write?)",
			path, off, size, i, n, off+n)
		return
	}
	if n > 0 && !o.allows(p, path, reg{regPresent, off + n - 1}, 1, rs) {
		o.violate(p, "stale read %q [%d,+%d) on mount %d: %d bytes, but no legal mutation leaves byte %d in the file",
			path, off, size, i, n, off+n-1)
		return
	}
	// The legal set is the same wherever the same mutations set the byte, so
	// it is computed once per run of bytes between their boundaries.
	cuts := []int64{off, off + n}
	for _, m := range muts {
		cuts = append(cuts, m.off)
		if m.kind == mutWrite {
			cuts = append(cuts, m.off+int64(len(m.data)))
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if lo < off || hi > off+n {
			continue
		}
		ms, initial := legal(muts, reg{regData, lo}, rs, p.Now())
		for b := lo; b < hi; b++ {
			v := int(got[b-off])
			if holds(ms, initial, reg{regData, b}, v) {
				continue
			}
			var values []int
			for _, m := range ms {
				w, _ := m.leaves(reg{regData, b})
				values = append(values, w)
			}
			if initial {
				values = append(values, 0)
			}
			o.violate(p, "stale read %q [%d,+%d) on mount %d: byte %d is %#02x; legal: %#02x (sum %x of what it returned)",
				path, off, size, i, b, v, values, blob.FromBytes(got).Checksum())
			return
		}
	}
}

// Write implements gluster.FS. A write is recorded as it is issued — a read
// it overlaps may see it — unless its descriptor names a file the path no
// longer does; one whose descriptor may name such a file is weak.
func (m *mount) Write(p *sim.Proc, fd gluster.FD, off int64, data blob.Blob) (int64, error) {
	d, ok := m.fds[fd]
	var mu *mutation
	if ok && data.Len() > 0 && !m.o.gone(d, p.Now()) {
		mu = m.o.begin(p, d.path, m.i, mutWrite, off, data.Bytes())
	}
	n, err := m.child.Write(p, fd, off, data)
	if mu != nil {
		mu.data, mu.weak = mu.data[:max(n, 0)], !m.o.certain(p, d)
		m.o.end(p, d.path, mu, err == nil && n > 0)
	}
	return n, err
}

// Stat implements gluster.FS: the file must exist, or not, as the history
// allows, and end where a legal mutation leaves its end.
func (m *mount) Stat(p *sim.Proc, path string) (*gluster.Stat, error) {
	start := p.Now()
	st, err := m.child.Stat(p, path)
	o := m.o
	switch {
	case err == nil && !st.IsDir:
		o.statChecks++
		size := st.Size
		if !o.allows(p, path, reg{kind: regExists}, 1, start) ||
			!o.allows(p, path, reg{regPresent, size}, 0, start) ||
			size > 0 && !o.allows(p, path, reg{regPresent, size - 1}, 1, start) {
			o.violate(p, "stale stat %q on mount %d: size %d, which no legal mutation leaves", path, m.i, size)
		}
	case err == gluster.ErrNotExist:
		o.statChecks++
		if !o.allows(p, path, reg{kind: regExists}, 0, start) {
			o.violate(p, "stat %q on mount %d: file lost", path, m.i)
		}
	}
	return st, err
}

// Unlink implements gluster.FS.
func (m *mount) Unlink(p *sim.Proc, path string) error {
	mu := m.o.begin(p, path, m.i, mutUnlink, 0, nil)
	err := m.child.Unlink(p, path)
	m.o.end(p, path, mu, err == nil)
	return err
}

// Mkdir implements gluster.FS (directories are not tracked).
func (m *mount) Mkdir(p *sim.Proc, path string) error { return m.child.Mkdir(p, path) }

// Readdir implements gluster.FS (directories are not tracked).
func (m *mount) Readdir(p *sim.Proc, path string) ([]string, error) {
	return m.child.Readdir(p, path)
}

// Truncate implements gluster.FS.
func (m *mount) Truncate(p *sim.Proc, path string, size int64) error {
	mu := m.o.begin(p, path, m.i, mutTruncate, size, nil)
	err := m.child.Truncate(p, path, size)
	m.o.end(p, path, mu, err == nil)
	return err
}

// VerifyAll closes every descriptor the oracle saw opened, orphans
// included, then reads every path it has a history for back through mount
// 0 (open, a read past the furthest end any mutation left, close) and
// returns the accumulated violations. Call it after the workload — and
// after the plan's faults have healed — for an end-of-run audit that
// catches corruption the workload's own reads never touched. Descriptors
// close in mount and descriptor order and paths are read in sorted order,
// so the audit's simulated traffic is deterministic.
func (o *Oracle) VerifyAll(p *sim.Proc) []string {
	for _, m := range o.mounts {
		fds := make([]gluster.FD, 0, len(m.fds))
		for fd := range m.fds {
			fds = append(fds, fd)
		}
		slices.Sort(fds)
		for _, fd := range fds {
			_ = m.Close(p, fd)
		}
	}
	paths := make([]string, 0, len(o.files))
	for path := range o.files {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	m := o.mounts[0]
	for _, path := range paths {
		fd, err := m.Open(p, path)
		if err != nil {
			// Open already judged ErrNotExist; any other error (a
			// still-failed brick) means the audit cannot run, which is
			// itself worth flagging.
			if err != gluster.ErrNotExist {
				o.violate(p, "audit open %q: %v", path, err)
			}
			continue
		}
		var end int64
		for _, mu := range o.files[path] {
			end = max(end, mu.off+int64(len(mu.data)))
		}
		if _, err := m.Read(p, fd, 0, end+1); err != nil {
			o.violate(p, "audit read %q: %v", path, err)
		}
		_ = m.Close(p, fd)
	}
	return o.violations
}
