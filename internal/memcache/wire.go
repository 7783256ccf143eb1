package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The byte-level codec both ends of the text protocol share: one line
// reader, one tokenizer and one decimal codec for requests and replies.
// Nothing here allocates; what a verb allocates is what must outlive it.

// maxLineLen caps a command or reply line, terminator excluded. The longest
// well-formed line — a cas of a 250-byte key — is under 350 bytes.
const maxLineLen = 2048

var errLineTooLong = errors.New("memcache: line too long")

// readLine returns the next line without its terminator. The slice borrows
// r's buffer and dies at the next read from r. A line over maxLineLen —
// or a stream that never sends a newline — is errLineTooLong; r must
// buffer more than maxLineLen bytes, as bufio's default does.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) > maxLineLen {
		return nil, errLineTooLong
	}
	return line, nil
}

func isSpace(c byte) bool { return c == ' ' || c-'\t' < 5 } // space, \t \n \v \f \r

// nextField returns b's first whitespace-separated field and what follows
// it; the field is nil when b holds none.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	if i == j {
		return nil, nil
	}
	return b[i:j], b[j:]
}

// splitFields stores b's first len(dst) fields in dst and returns how many
// b has.
func splitFields(b []byte, dst [][]byte) int {
	n := 0
	for {
		var f []byte
		if f, b = nextField(b); f == nil {
			return n
		}
		if n < len(dst) {
			dst[n] = f
		}
		n++
	}
}

// parseUint reads an unsigned decimal: digits only, no sign, no overflow.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var ok bool
		if v, ok = addDigit(v, c); !ok {
			return 0, false
		}
	}
	return v, true
}

// addDigit appends the decimal digit c to v. It reports false when c is
// not a digit or the result would overflow.
func addDigit(v uint64, c byte) (uint64, bool) {
	d := uint64(c - '0')
	if d > 9 || v > math.MaxUint64/10 || v*10 > math.MaxUint64-d {
		return 0, false
	}
	return v*10 + d, true
}

// parseInt reads a decimal with an optional sign.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg || len(b) > 0 && b[0] == '+' {
		b = b[1:]
	}
	v, ok := parseUint(b)
	if !ok || v > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// wireWriter is a connection's buffered writer plus the scratch its
// numbers are rendered in — for the binary protocol, a 24-byte header and
// up to 8 bytes of flags or counter — so encoding one allocates nothing.
type wireWriter struct {
	*bufio.Writer
	scratch [32]byte
}

// The methods below append to the pending output. Like bufio.Writer's own,
// they latch the first error, which Flush then reports.

func (w *wireWriter) str(s string) { _, _ = w.WriteString(s) }

func (w *wireWriter) uint(v uint64) { _, _ = w.Write(strconv.AppendUint(w.scratch[:0], v, 10)) }

// field and fieldInt write a space and then the number.
func (w *wireWriter) field(v uint64) {
	w.scratch[0] = ' '
	_, _ = w.Write(strconv.AppendUint(w.scratch[:1], v, 10))
}

func (w *wireWriter) fieldInt(v int64) {
	w.scratch[0] = ' '
	_, _ = w.Write(strconv.AppendInt(w.scratch[:1], v, 10))
}

// verdicts pairs each outcome of a store, delete or incr with its text
// reply line — the server encodes with it, the client decodes — and its
// binary reply status.
var verdicts = [...]struct {
	err    error
	line   string
	status uint16
}{
	{nil, "STORED", binStatusOK},
	{ErrNotStored, "NOT_STORED", binStatusNotStored},
	{ErrExists, "EXISTS", binStatusKeyExists},
	{ErrCacheMiss, "NOT_FOUND", binStatusKeyNotFound},
	{ErrTooLarge, "SERVER_ERROR object too large for cache", binStatusTooLarge},
	{ErrBadKey, "CLIENT_ERROR bad key", binStatusInvalidArgs},
	{ErrNotNumeric, "CLIENT_ERROR cannot increment or decrement non-numeric value", binStatusNonNumeric},
}

func (w *wireWriter) verdict(err error) {
	for _, v := range verdicts {
		if v.err == err {
			w.str(v.line)
			w.str("\r\n")
			return
		}
	}
	w.str("SERVER_ERROR ")
	w.str(err.Error())
	w.str("\r\n")
}

func verdictOf(line []byte) error {
	for _, v := range verdicts {
		if string(line) == v.line {
			return v.err
		}
	}
	return fmt.Errorf("memcache: server answered %q", line)
}

// maxKeptBody bounds the buffer a connection keeps between requests for a
// request's body or a reply's value. A larger one gets a buffer of its own
// that is dropped after the request, so one oversized message cannot pin
// its size for the life of the connection.
const maxKeptBody = 64 << 10

// bodyBuffer returns a length-n buffer for a request body or a reply value:
// *kept, grown as needed, when n is at most maxKeptBody, and otherwise one
// of its own that *kept never holds. Contents are unspecified; the caller
// writes over them.
func bodyBuffer(kept *[]byte, n int) []byte {
	if n > maxKeptBody {
		return make([]byte, n)
	}
	if n > cap(*kept) {
		*kept = make([]byte, min(max(n, 2*cap(*kept)), maxKeptBody))
	}
	return (*kept)[:n]
}

// readBlock reads a data block from r into data, which it fills, and then
// the block's "\r\n". ok is false when the terminator is not where the
// length says.
func readBlock(r *bufio.Reader, data []byte) (ok bool, err error) {
	if _, err := io.ReadFull(r, data); err != nil {
		return false, err
	}
	cr, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	lf, err := r.ReadByte()
	return cr == '\r' && lf == '\n', err
}
