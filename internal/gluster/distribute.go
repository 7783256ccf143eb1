package gluster

import (
	"hash/crc32"
	"sort"

	"imca/internal/blob"
	"imca/internal/sim"
)

// Distribute is the namespace-distribution xlator: GlusterFS in its default
// configuration does not stripe file data but spreads whole files across
// subvolumes (bricks) by a hash of the path. Path operations route to the
// owning subvolume; descriptor operations follow the subvolume that issued
// the descriptor.
type Distribute struct {
	Blocking
	subvols []TaskFS
	// fdRoute remembers which subvolume issued each descriptor. Local
	// descriptors are re-numbered so they stay unique across subvolumes.
	fdRoute map[FD]fdMapping
	nextFD  FD

	// Routing counters, exposed via Register.
	pathOps []uint64 // path operations hashed to each subvolume
	fdOps   uint64   // descriptor operations routed by fdRoute
	fanOps  uint64   // namespace operations fanned to every subvolume
	badFDs  uint64   // descriptor operations that missed fdRoute
}

type fdMapping struct {
	sub TaskFS
	fd  FD
}

var _ TaskFS = (*Distribute)(nil)

// NewDistribute returns a distribute xlator over the given subvolumes.
func NewDistribute(subvols ...TaskFS) *Distribute {
	if len(subvols) == 0 {
		panic("gluster: distribute needs subvolumes")
	}
	d := &Distribute{
		subvols: append([]TaskFS(nil), subvols...),
		fdRoute: make(map[FD]fdMapping),
		pathOps: make([]uint64, len(subvols)),
	}
	d.Blocking = NewBlocking(d)
	return d
}

// dhtTable drives the string-keyed routing hash below.
var dhtTable = crc32.MakeTable(crc32.IEEE)

// crc32Path is crc32.ChecksumIEEE over a string, byte by byte: the same
// table-walk recurrence, so the same checksum, without the []byte conversion
// a per-stat routing decision would otherwise pay for.
func crc32Path(s string) uint32 {
	h := ^uint32(0)
	for i := 0; i < len(s); i++ {
		h = dhtTable[byte(h)^s[i]] ^ (h >> 8)
	}
	return ^h
}

// subFor hashes a path to its owning subvolume.
func (d *Distribute) subFor(path string) TaskFS {
	i := int(crc32Path(clean(path)) % uint32(len(d.subvols)))
	d.pathOps[i]++
	return d.subvols[i]
}

func (d *Distribute) issue(sub TaskFS, fd FD) FD {
	d.nextFD++
	d.fdRoute[d.nextFD] = fdMapping{sub: sub, fd: fd}
	return d.nextFD
}

func (d *Distribute) route(fd FD) (fdMapping, bool) {
	m, ok := d.fdRoute[fd]
	if ok {
		d.fdOps++
	} else {
		d.badFDs++
	}
	return m, ok
}

// issued wraps a create/open continuation to re-number the descriptor the
// subvolume issued.
func (d *Distribute) issued(sub TaskFS, k func(FD, error)) func(FD, error) {
	return func(fd FD, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(d.issue(sub, fd), nil)
	}
}

// CreateT implements TaskFS.
func (d *Distribute) CreateT(t *sim.Task, path string, k func(FD, error)) {
	sub := d.subFor(path)
	sub.CreateT(t, path, d.issued(sub, k))
}

// OpenT implements TaskFS.
func (d *Distribute) OpenT(t *sim.Task, path string, k func(FD, error)) {
	sub := d.subFor(path)
	sub.OpenT(t, path, d.issued(sub, k))
}

// CloseT implements TaskFS.
func (d *Distribute) CloseT(t *sim.Task, fd FD, k func(error)) {
	m, ok := d.route(fd)
	if !ok {
		k(ErrBadFD)
		return
	}
	delete(d.fdRoute, fd)
	m.sub.CloseT(t, m.fd, k)
}

// ReadT implements TaskFS.
func (d *Distribute) ReadT(t *sim.Task, fd FD, off, size int64, k func(blob.Blob, error)) {
	m, ok := d.route(fd)
	if !ok {
		k(blob.Blob{}, ErrBadFD)
		return
	}
	m.sub.ReadT(t, m.fd, off, size, k)
}

// WriteT implements TaskFS.
func (d *Distribute) WriteT(t *sim.Task, fd FD, off int64, data blob.Blob, k func(int64, error)) {
	m, ok := d.route(fd)
	if !ok {
		k(0, ErrBadFD)
		return
	}
	m.sub.WriteT(t, m.fd, off, data, k)
}

// StatT implements TaskFS.
func (d *Distribute) StatT(t *sim.Task, path string, k func(*Stat, error)) {
	d.subFor(path).StatT(t, path, k)
}

// UnlinkT implements TaskFS.
func (d *Distribute) UnlinkT(t *sim.Task, path string, k func(error)) {
	d.subFor(path).UnlinkT(t, path, k)
}

// MkdirT implements TaskFS. Directories exist on every subvolume, as in
// GlusterFS; the first error is the one reported.
func (d *Distribute) MkdirT(t *sim.Task, path string, k func(error)) {
	d.fanOps++
	var first error
	var step func(i int)
	step = func(i int) {
		if i == len(d.subvols) {
			k(first)
			return
		}
		d.subvols[i].MkdirT(t, path, func(err error) {
			if err != nil && first == nil {
				first = err
			}
			step(i + 1)
		})
	}
	step(0)
}

// ReaddirT implements TaskFS, merging listings from all subvolumes.
func (d *Distribute) ReaddirT(t *sim.Task, path string, k func([]string, error)) {
	d.fanOps++
	seen := make(map[string]struct{})
	var out []string
	var lastErr error
	found := false
	var step func(i int)
	step = func(i int) {
		if i == len(d.subvols) {
			if !found {
				k(nil, lastErr)
				return
			}
			sort.Strings(out)
			k(out, nil)
			return
		}
		d.subvols[i].ReaddirT(t, path, func(names []string, err error) {
			if err != nil {
				lastErr = err
			} else {
				found = true
				for _, n := range names {
					if _, dup := seen[n]; !dup {
						seen[n] = struct{}{}
						out = append(out, n)
					}
				}
			}
			step(i + 1)
		})
	}
	step(0)
}

// TruncateT implements TaskFS.
func (d *Distribute) TruncateT(t *sim.Task, path string, size int64, k func(error)) {
	d.subFor(path).TruncateT(t, path, size, k)
}
