package memcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"imca/internal/blob"
)

// The memcached binary protocol: fixed 24-byte headers, binary-safe keys
// and values, quiet variants for pipelining. This implementation covers
// the core command set — every verb with an opcode in the verb table — and
// interoperates with standard binary-protocol clients.

const (
	binReqMagic  = 0x80
	binRespMagic = 0x81
)

// Binary response status codes.
const (
	binStatusOK          = 0x0000
	binStatusKeyNotFound = 0x0001
	binStatusKeyExists   = 0x0002
	binStatusTooLarge    = 0x0003
	binStatusInvalidArgs = 0x0004
	binStatusNotStored   = 0x0005
	binStatusNonNumeric  = 0x0006
	binStatusUnknownCmd  = 0x0081
)

// binHeader is a decoded request/response header.
type binHeader struct {
	magic     byte
	opcode    byte
	keyLen    uint16
	extrasLen uint8
	status    uint16 // vbucket in requests
	bodyLen   uint32
	opaque    uint32
	cas       uint64
}

func decodeBinHeader(buf []byte) binHeader {
	return binHeader{
		magic:     buf[0],
		opcode:    buf[1],
		keyLen:    binary.BigEndian.Uint16(buf[2:]),
		extrasLen: buf[4],
		status:    binary.BigEndian.Uint16(buf[6:]),
		bodyLen:   binary.BigEndian.Uint32(buf[8:]),
		opaque:    binary.BigEndian.Uint32(buf[12:]),
		cas:       binary.BigEndian.Uint64(buf[16:]),
	}
}

// writeBinResponse renders the header in w's scratch, so a response
// allocates nothing. Write errors latch in w and surface at Flush.
func writeBinResponse(w *wireWriter, opcode byte, status uint16, opaque uint32, cas uint64, extras, key, value []byte) {
	buf := w.scratch[:24]
	buf[0] = binRespMagic
	buf[1] = opcode
	binary.BigEndian.PutUint16(buf[2:], uint16(len(key)))
	buf[4] = uint8(len(extras))
	buf[5] = 0
	binary.BigEndian.PutUint16(buf[6:], status)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(buf[12:], opaque)
	binary.BigEndian.PutUint64(buf[16:], cas)
	_, _ = w.Write(buf)
	_, _ = w.Write(extras)
	_, _ = w.Write(key)
	_, _ = w.Write(value)
}

// binStatusFor is the binary reply status of a verdict (see verdicts).
func binStatusFor(err error) uint16 {
	for _, v := range verdicts {
		if v.err == err {
			return v.status
		}
	}
	return binStatusInvalidArgs
}

// ServeBinaryConn runs the binary protocol on rw against store until the
// peer quits or the connection errors.
func ServeBinaryConn(store *Store, rw io.ReadWriter) error {
	return serveBinary(store, bufio.NewReader(rw), bufio.NewWriter(rw))
}

// binBuffers are a binary connection's kept buffers (see bodyBuffer). The
// connection holds one request at a time, and everything that outlives it
// (keys, stored values) is copied out of it, so every body is read into
// body. A get's hit is copied out into value: body still holds the key a
// getk echoes.
type binBuffers struct{ body, value []byte }

func serveBinary(store *Store, r *bufio.Reader, bw *bufio.Writer) error {
	w := &wireWriter{Writer: bw}
	var bufs binBuffers
	for {
		// The text loop's rule: flush when the next read could block — here,
		// when less than a whole header is buffered.
		if r.Buffered() < 24 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		quit, err := serveBinaryOne(store, r, w, &bufs)
		if err != nil {
			_ = w.Flush() // the read error is the one to report
			return err
		}
		if quit {
			return w.Flush()
		}
	}
}

// serveBinaryOne serves one request, reading its body into bufs.body when
// it fits (see bodyBuffer).
func serveBinaryOne(store *Store, r *bufio.Reader, w *wireWriter, bufs *binBuffers) (quit bool, err error) {
	// The header is decoded where it sits in the read buffer.
	hdr, err := r.Peek(24)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return false, err
	}
	h := decodeBinHeader(hdr)
	_, _ = r.Discard(24) // cannot fail: the 24 bytes are buffered
	if h.magic != binReqMagic {
		return false, fmt.Errorf("memcache: bad request magic 0x%02x", h.magic)
	}
	if int(h.extrasLen)+int(h.keyLen) > int(h.bodyLen) {
		return false, fmt.Errorf("memcache: inconsistent binary lengths")
	}
	if valueLen := int64(h.bodyLen) - int64(h.extrasLen) - int64(h.keyLen); valueLen > MaxValueLen {
		// As in the text loop: an oversized value is refused, then skipped
		// without being buffered.
		writeBinResponse(w, h.opcode, binStatusTooLarge, h.opaque, 0, nil, nil, nil)
		if err := w.Flush(); err != nil {
			return false, err
		}
		_, err := io.CopyN(io.Discard, r, int64(h.bodyLen))
		return false, err
	}
	if r.Buffered() < int(h.bodyLen) {
		// The body is still in flight: earlier replies leave first.
		if err := w.Flush(); err != nil {
			return false, err
		}
	}
	body := bodyBuffer(&bufs.body, int(h.bodyLen))
	if _, err := io.ReadFull(r, body); err != nil {
		return false, err
	}
	extras := body[:h.extrasLen]
	keyBytes := body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)]
	value := body[int(h.extrasLen)+int(h.keyLen):]

	v, op, known := binaryVerb(h.opcode)
	respond := func(status uint16, cas uint64, rextras, rkey, rvalue []byte) {
		if op.quiet && status == binStatusKeyNotFound {
			return // quiet gets suppress misses
		}
		writeBinResponse(w, h.opcode, status, h.opaque, cas, rextras, rkey, rvalue)
	}
	if !known {
		respond(binStatusUnknownCmd, 0, nil, nil, nil)
		return false, nil
	}

	if v == verbGet {
		it, ok := store.GetView(keyBytes, &bufs.value)
		if !ok {
			respond(binStatusKeyNotFound, 0, nil, nil, nil)
			return false, nil
		}
		fl := w.scratch[24:28]
		binary.BigEndian.PutUint32(fl, it.Flags)
		var rkey []byte
		if op.key {
			rkey = keyBytes
		}
		respond(binStatusOK, it.CAS, fl, rkey, it.Value.Bytes())
		return false, nil
	}

	// The key is lent to the store from the body buffer, which the next
	// request overwrites; the store copies what it keeps.
	switch v {
	case verbSet, verbAdd, verbReplace:
		if len(extras) != 8 {
			respond(binStatusInvalidArgs, 0, nil, nil, nil)
			break
		}
		item := Item{
			Value:      blob.FromBytes(value),
			Flags:      binary.BigEndian.Uint32(extras[0:]),
			Expiration: normalizeExp(int64(binary.BigEndian.Uint32(extras[4:])), store.Now()),
			CAS:        h.cas,
		}
		if h.cas != 0 {
			v = verbCAS
		}
		serr := applyLent(store, v, keyBytes, &item)
		respond(binStatusFor(serr), item.CAS, nil, nil, nil)

	case verbAppend, verbPrepend:
		item := Item{Value: blob.FromBytes(value)}
		respond(binStatusFor(applyLent(store, v, keyBytes, &item)), 0, nil, nil, nil)

	case verbDelete:
		respond(binStatusFor(deleteKey(store, keyBytes)), 0, nil, nil, nil)

	case verbIncr, verbDecr:
		if len(extras) != 20 {
			respond(binStatusInvalidArgs, 0, nil, nil, nil)
			break
		}
		delta := binary.BigEndian.Uint64(extras[0:])
		initial := binary.BigEndian.Uint64(extras[8:])
		expiry := binary.BigEndian.Uint32(extras[16:])
		n, ierr := incrDecr(store, keyBytes, delta, v == verbIncr)
		if ierr == ErrCacheMiss && expiry != 0xffffffff {
			// Binary protocol: a miss with expiry != -1 seeds the counter.
			item := &Item{Value: blob.FromBytes(strconv.AppendUint(nil, initial, 10)),
				Expiration: normalizeExp(int64(expiry), store.Now())}
			n, ierr = initial, apply(store, verbSet, keyBytes, item)
		}
		if ierr != nil {
			respond(binStatusFor(ierr), 0, nil, nil, nil)
			break
		}
		num := w.scratch[24:32]
		binary.BigEndian.PutUint64(num, n)
		respond(binStatusOK, 0, nil, nil, num)

	case verbFlush:
		store.FlushAll()
		respond(binStatusOK, 0, nil, nil, nil)

	case verbVersion:
		respond(binStatusOK, 0, nil, nil, []byte(version))

	case verbStats:
		st := store.Stats()
		var num [20]byte
		for _, row := range statRows {
			writeBinResponse(w, h.opcode, binStatusOK, h.opaque, 0, nil, []byte(row.name), strconv.AppendUint(num[:0], row.get(&st), 10))
		}
		// Terminating empty stat response.
		writeBinResponse(w, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil)

	case verbQuit:
		respond(binStatusOK, 0, nil, nil, nil)
		return true, nil

	default: // noop
		respond(binStatusOK, 0, nil, nil, nil)
	}
	return false, nil
}

// ServeAutoConn sniffs the first byte to select the binary (0x80 magic) or
// text protocol, as dual-protocol deployments expect. The chosen loop
// inherits the sniffing reader rather than stacking its own on top.
func ServeAutoConn(store *Store, rw io.ReadWriter) error {
	r, w := bufio.NewReader(rw), bufio.NewWriter(rw)
	first, err := r.Peek(1)
	if err != nil {
		return err
	}
	if first[0] == binReqMagic {
		return serveBinary(store, r, w)
	}
	return serveText(store, r, w)
}
