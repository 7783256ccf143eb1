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
// the core command set (get/set/add/replace/delete/incr/decr/append/
// prepend/version/noop/flush/quit/stat) and interoperates with standard
// binary-protocol clients.

const (
	binReqMagic  = 0x80
	binRespMagic = 0x81
)

// Binary opcodes.
const (
	binOpGet     = 0x00
	binOpSet     = 0x01
	binOpAdd     = 0x02
	binOpReplace = 0x03
	binOpDelete  = 0x04
	binOpIncr    = 0x05
	binOpDecr    = 0x06
	binOpQuit    = 0x07
	binOpFlush   = 0x08
	binOpGetQ    = 0x09
	binOpNoop    = 0x0a
	binOpVersion = 0x0b
	binOpGetK    = 0x0c
	binOpGetKQ   = 0x0d
	binOpAppend  = 0x0e
	binOpPrepend = 0x0f
	binOpStat    = 0x10
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

func binStatusFor(err error) uint16 {
	switch err {
	case nil:
		return binStatusOK
	case ErrCacheMiss:
		return binStatusKeyNotFound
	case ErrExists:
		return binStatusKeyExists
	case ErrTooLarge:
		return binStatusTooLarge
	case ErrNotStored:
		return binStatusNotStored
	case ErrNotNumeric:
		return binStatusNonNumeric
	case ErrBadKey:
		return binStatusInvalidArgs
	default:
		return binStatusInvalidArgs
	}
}

// ServeBinaryConn runs the binary protocol on rw against store until the
// peer quits or the connection errors.
func ServeBinaryConn(store *Store, rw io.ReadWriter) error {
	return serveBinary(store, bufio.NewReader(rw), bufio.NewWriter(rw))
}

// maxKeptBody bounds the body buffer a connection keeps between requests.
// A larger body is read into a buffer of its own that is dropped after the
// request, so one oversized message cannot pin its size for the life of
// the connection.
const maxKeptBody = 64 << 10

func serveBinary(store *Store, r *bufio.Reader, bw *bufio.Writer) error {
	w := &wireWriter{Writer: bw}
	// The connection holds one request body at a time, and everything that
	// outlives the request (keys, stored values) is copied out of it, so
	// every body up to maxKeptBody is read into this one reused buffer.
	var body []byte
	for {
		// The text loop's rule: flush when the next read could block — here,
		// when less than a whole header is buffered.
		if r.Buffered() < 24 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		quit, err := serveBinaryOne(store, r, w, &body)
		if err != nil {
			_ = w.Flush() // the read error is the one to report
			return err
		}
		if quit {
			return w.Flush()
		}
	}
}

// bodyBuffer returns a length-n buffer for a request body: *kept, grown as
// needed, when n is at most maxKeptBody, and otherwise one of its own that
// *kept never holds. Contents are unspecified; the caller reads over them.
func bodyBuffer(kept *[]byte, n int) []byte {
	if n > maxKeptBody {
		return make([]byte, n)
	}
	if n > cap(*kept) {
		*kept = make([]byte, min(max(n, 2*cap(*kept)), maxKeptBody))
	}
	return (*kept)[:n]
}

// serveBinaryOne serves one request, reading its body into *kept when it
// fits (see bodyBuffer).
func serveBinaryOne(store *Store, r *bufio.Reader, w *wireWriter, kept *[]byte) (quit bool, err error) {
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
	body := bodyBuffer(kept, int(h.bodyLen))
	if _, err := io.ReadFull(r, body); err != nil {
		return false, err
	}
	extras := body[:h.extrasLen]
	keyBytes := body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)]
	value := body[int(h.extrasLen)+int(h.keyLen):]

	quiet := h.opcode == binOpGetQ || h.opcode == binOpGetKQ
	respond := func(status uint16, cas uint64, rextras, rkey, rvalue []byte) {
		if quiet && status == binStatusKeyNotFound {
			return // quiet gets suppress misses
		}
		writeBinResponse(w, h.opcode, status, h.opaque, cas, rextras, rkey, rvalue)
	}

	switch h.opcode {
	case binOpGet, binOpGetK, binOpGetQ, binOpGetKQ:
		it, ok := store.GetView(keyBytes)
		if !ok {
			respond(binStatusKeyNotFound, 0, nil, nil, nil)
			return false, nil
		}
		fl := w.scratch[24:28]
		binary.BigEndian.PutUint32(fl, it.Flags)
		var rkey []byte
		if h.opcode == binOpGetK || h.opcode == binOpGetKQ {
			rkey = keyBytes
		}
		respond(binStatusOK, it.CAS, fl, rkey, it.Value.Bytes())
		return false, nil
	}

	key := string(keyBytes)
	switch h.opcode {
	case binOpSet, binOpAdd, binOpReplace:
		if len(extras) != 8 {
			respond(binStatusInvalidArgs, 0, nil, nil, nil)
			break
		}
		item := &Item{
			Key:        key,
			Value:      blob.FromBytes(append([]byte(nil), value...)),
			Flags:      binary.BigEndian.Uint32(extras[0:]),
			Expiration: normalizeExp(int64(binary.BigEndian.Uint32(extras[4:])), store.Now()),
			CAS:        h.cas,
		}
		var serr error
		switch {
		case h.cas != 0:
			serr = store.CompareAndSwap(item)
		case h.opcode == binOpSet:
			serr = store.Set(item)
		case h.opcode == binOpAdd:
			serr = store.Add(item)
		default:
			serr = store.Replace(item)
		}
		respond(binStatusFor(serr), item.CAS, nil, nil, nil)

	case binOpAppend, binOpPrepend:
		v := blob.FromBytes(append([]byte(nil), value...))
		var serr error
		if h.opcode == binOpAppend {
			serr = store.Append(key, v)
		} else {
			serr = store.Prepend(key, v)
		}
		respond(binStatusFor(serr), 0, nil, nil, nil)

	case binOpDelete:
		respond(binStatusFor(store.Delete(key)), 0, nil, nil, nil)

	case binOpIncr, binOpDecr:
		if len(extras) != 20 {
			respond(binStatusInvalidArgs, 0, nil, nil, nil)
			break
		}
		delta := binary.BigEndian.Uint64(extras[0:])
		initial := binary.BigEndian.Uint64(extras[8:])
		expiry := binary.BigEndian.Uint32(extras[16:])
		v, ierr := store.IncrDecr(key, delta, h.opcode == binOpIncr)
		if ierr == ErrCacheMiss && expiry != 0xffffffff {
			// Binary protocol: a miss with expiry != -1 seeds the counter.
			item := &Item{Key: key, Value: blob.FromBytes(strconv.AppendUint(nil, initial, 10)),
				Expiration: normalizeExp(int64(expiry), store.Now())}
			v, ierr = initial, store.Set(item)
		}
		if ierr != nil {
			respond(binStatusFor(ierr), 0, nil, nil, nil)
			break
		}
		num := w.scratch[24:32]
		binary.BigEndian.PutUint64(num, v)
		respond(binStatusOK, 0, nil, nil, num)

	case binOpFlush:
		store.FlushAll()
		respond(binStatusOK, 0, nil, nil, nil)

	case binOpNoop:
		respond(binStatusOK, 0, nil, nil, nil)

	case binOpVersion:
		respond(binStatusOK, 0, nil, nil, []byte("1.2.8-imca"))

	case binOpStat:
		st := store.Stats()
		var num [20]byte
		for _, row := range statRows {
			writeBinResponse(w, h.opcode, binStatusOK, h.opaque, 0, nil, []byte(row.name), strconv.AppendUint(num[:0], row.get(&st), 10))
		}
		// Terminating empty stat response.
		writeBinResponse(w, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil)

	case binOpQuit:
		respond(binStatusOK, 0, nil, nil, nil)
		return true, nil

	default:
		respond(binStatusUnknownCmd, 0, nil, nil, nil)
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
