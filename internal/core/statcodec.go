package core

import (
	"encoding/binary"
	"errors"

	"imca/internal/blob"
	"imca/internal/gluster"
	"imca/internal/sim"
)

// statCodec packs a gluster.Stat into bytes for MCD storage and back.
// Layout: ino(8) size(8) atime(8) mtime(8) ctime(8) isDir(1) pathLen(2)
// path(n), big-endian.

const statFixedLen = 8*5 + 1 + 2

var errBadStatEncoding = errors.New("core: bad stat encoding")

// statSlabSize is the size of one stat slab: about 70 encodings of a
// 16-byte path. An encoding larger than a slab gets a buffer of its own.
const statSlabSize = 4 << 10

// statSlab is a push pool's source of stat encodings. The simulated bank
// keeps a value by reference, so an encoding is never rewritten and never
// recycled: encode cuts each one off the current slab and starts a new slab
// when the current one runs out, and the collector frees a slab once the
// last stat cut from it is neither resident nor in flight — at worst one
// slab per resident stat. Each cut is a three-index slice (cap == len), so
// nothing appended to one encoding reaches its neighbour. A slab belongs to
// one pool, never to the package: figure cells run on parallel goroutines.
type statSlab struct{ free []byte }

// encode returns st's encoding, cut from the slab.
func (s *statSlab) encode(st *gluster.Stat) []byte {
	n := statFixedLen + len(st.Path)
	var buf []byte
	switch {
	case n > statSlabSize:
		buf = make([]byte, n)
	case n > len(s.free):
		s.free = make([]byte, statSlabSize)
		fallthrough
	default:
		buf, s.free = s.free[:n:n], s.free[n:]
	}
	binary.BigEndian.PutUint64(buf[0:], st.Ino)
	binary.BigEndian.PutUint64(buf[8:], uint64(st.Size))
	binary.BigEndian.PutUint64(buf[16:], uint64(st.Atime))
	binary.BigEndian.PutUint64(buf[24:], uint64(st.Mtime))
	binary.BigEndian.PutUint64(buf[32:], uint64(st.Ctime))
	if st.IsDir {
		buf[40] = 1
	}
	binary.BigEndian.PutUint16(buf[41:], uint16(len(st.Path)))
	copy(buf[statFixedLen:], st.Path)
	return buf
}

// decodeStatInto decodes b into the caller-owned st, allocating nothing
// when hint matches the encoded path: the hot stat path always knows which
// path it asked the bank about, so the comparison (which Go performs
// without materializing a string) lets st.Path alias the caller's existing
// string instead of copying the bytes out of the blob. Callers that decode
// into a pooled frame hand *st out as a borrow — valid only until the next
// decode into the same frame.
func decodeStatInto(st *gluster.Stat, b blob.Blob, hint string) error {
	if b.Len() < statFixedLen {
		return errBadStatEncoding
	}
	buf := b.Bytes()
	n := int(binary.BigEndian.Uint16(buf[41:]))
	if len(buf) != statFixedLen+n {
		return errBadStatEncoding
	}
	st.Ino = binary.BigEndian.Uint64(buf[0:])
	st.Size = int64(binary.BigEndian.Uint64(buf[8:]))
	st.Atime = sim.Time(binary.BigEndian.Uint64(buf[16:]))
	st.Mtime = sim.Time(binary.BigEndian.Uint64(buf[24:]))
	st.Ctime = sim.Time(binary.BigEndian.Uint64(buf[32:]))
	st.IsDir = buf[40] == 1
	if p := buf[statFixedLen:]; string(p) == hint {
		st.Path = hint
	} else {
		st.Path = string(p)
	}
	return nil
}
