package memcache

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"

	"imca/internal/blob"
)

// relativeTTLCutoff: expirations up to 30 days are relative seconds;
// larger values are absolute unix timestamps (memcached convention).
const relativeTTLCutoff = 60 * 60 * 24 * 30

// version is the release the daemon reports on both protocols.
const version = "1.2.8-imca"

// normalizeExp converts a protocol exptime to an absolute second count.
func normalizeExp(exp int64, now int64) int64 {
	switch {
	case exp == 0:
		return 0
	case exp < 0:
		return now - 1 // already expired
	case exp <= relativeTTLCutoff:
		return now + exp
	default:
		return exp
	}
}

// ServeConn runs the memcached text protocol on rw against store until the
// peer quits or the connection errors. It returns the first I/O error (or
// nil on a clean "quit"). A command line longer than 2048 bytes is answered
// with CLIENT_ERROR and ends the connection; a value longer than
// MaxValueLen is refused and skipped without being buffered.
func ServeConn(store *Store, rw io.ReadWriter) error {
	return serveText(store, bufio.NewReader(rw), bufio.NewWriter(rw))
}

// textConn is the state of one text-protocol connection.
type textConn struct {
	store *Store
	r     *bufio.Reader
	w     wireWriter
	// kept is the connection's buffer for the value of the request in
	// hand: a set's data block is read into it, a get's hit copied out
	// into it (see bodyBuffer). key holds a set's key while its data block
	// is read over the line it came in on.
	kept, key []byte
}

func serveText(store *Store, r *bufio.Reader, w *bufio.Writer) error {
	c := &textConn{store: store, r: r, w: wireWriter{Writer: w}}
	for {
		// Replies leave when the next read could block, not per command: a
		// pipelined batch that arrived in one read is answered in one write,
		// but no reply waits behind a command whose end has yet to arrive.
		if n := r.Buffered(); n == 0 || !holdsLine(r, n) {
			if err := c.w.Flush(); err != nil {
				return err
			}
		}
		line, err := readLine(r)
		if err == errLineTooLong {
			c.w.str("CLIENT_ERROR line too long\r\n")
		}
		quit := false
		if err == nil && len(line) > 0 {
			quit, err = c.dispatch(line)
		}
		if err != nil {
			_ = c.w.Flush() // the read error is the one to report
			return err
		}
		if quit {
			return c.w.Flush()
		}
	}
}

// holdsLine reports whether the n bytes r has buffered include a line end,
// so that reading the next line cannot block.
func holdsLine(r *bufio.Reader, n int) bool {
	buf, _ := r.Peek(n) // cannot fail: n bytes are buffered
	return bytes.IndexByte(buf, '\n') >= 0
}

// dispatch handles one command line. It reports whether the peer asked to
// quit; an error is an I/O error reading a data block.
func (c *textConn) dispatch(line []byte) (quit bool, err error) {
	name, args := nextField(line)
	v, ok := textVerb(name)
	if !ok { // a line of only blanks has no verb and lands here too
		c.w.str("ERROR\r\n")
		return false, nil
	}
	switch v {
	case verbGet, verbGets:
		c.get(args, v == verbGets)
	case verbDelete:
		c.delete(args)
	case verbIncr, verbDecr:
		c.incrDecr(v == verbIncr, args)
	case verbStats:
		if sub, _ := nextField(args); string(sub) == "slabs" {
			c.statsSlabs()
		} else {
			c.stats()
		}
	case verbFlush:
		c.store.FlushAll()
		c.ok(args)
	case verbVersion:
		c.w.str("VERSION " + version + "\r\n")
	case verbVerbosity:
		c.ok(args)
	case verbQuit:
		return true, nil
	default: // the storage verbs
		return false, c.storeCmd(v, args)
	}
	return false, nil
}

// cutNoreply strips a final "noreply" field from args.
func cutNoreply(args []byte) ([]byte, bool) {
	for len(args) > 0 && isSpace(args[len(args)-1]) {
		args = args[:len(args)-1]
	}
	if n := len(args) - len("noreply"); n >= 0 && string(args[n:]) == "noreply" && (n == 0 || isSpace(args[n-1])) {
		return args[:n], true
	}
	return args, false
}

func (c *textConn) ok(args []byte) {
	if _, noreply := cutNoreply(args); !noreply {
		c.w.str("OK\r\n")
	}
}

const badFormat = "CLIENT_ERROR bad command line format\r\n"

// get answers from the store's by-bytes view: a hit costs no key string
// and no item copy, only the bytes written, copied out through kept.
func (c *textConn) get(keys []byte, withCAS bool) {
	w := &c.w
	for {
		var key []byte
		if key, keys = nextField(keys); key == nil {
			break
		}
		it, ok := c.store.GetView(key, &c.kept)
		if !ok {
			continue
		}
		w.str("VALUE ")
		_, _ = w.Write(key)
		w.field(uint64(it.Flags))
		w.field(uint64(it.Value.Len()))
		if withCAS {
			w.field(it.CAS)
		}
		w.str("\r\n")
		_, _ = w.Write(it.Value.Bytes())
		w.str("\r\n")
	}
	w.str("END\r\n")
}

func (c *textConn) storeCmd(v verb, args []byte) error {
	args, noreply := cutNoreply(args)
	var f [5][]byte
	n := splitFields(args, f[:])
	want, casID, okCAS := 4, uint64(0), true
	if v == verbCAS {
		want = 5
		casID, okCAS = parseUint(f[4])
	}
	flags, okFlags := parseUint(f[1])
	exp, okExp := parseInt(f[2])
	nbytes, okLen := parseInt(f[3])
	if n != want || !okFlags || flags > math.MaxUint32 || !okExp || !okLen || nbytes < 0 || !okCAS {
		c.w.str(badFormat)
		return nil
	}
	if nbytes > MaxValueLen {
		// memcached's swallow state: refuse now — the peer may never send
		// all it announced — then skip the block (and its "\r\n", which
		// nbytes+2 could overflow past) without ever buffering it.
		c.verdict(noreply, ErrTooLarge)
		if err := c.w.Flush(); err != nil {
			return err
		}
		if _, err := io.CopyN(io.Discard, c.r, nbytes); err != nil {
			return err
		}
		_, err := c.r.Discard(2)
		return err
	}
	// The fields borrow the read buffer, which the data block overwrites:
	// the key is copied out first, into the connection's own buffer, which
	// it lends the store.
	c.key = append(c.key[:0], f[0]...)
	if int64(c.r.Buffered()) < nbytes+2 {
		// The block is still in flight: earlier replies leave first.
		if err := c.w.Flush(); err != nil {
			return err
		}
	}
	data := bodyBuffer(&c.kept, int(nbytes))
	ok, err := readBlock(c.r, data)
	if err != nil {
		return err
	}
	if !ok {
		if !noreply {
			c.w.str("CLIENT_ERROR bad data chunk\r\n")
		}
		return nil
	}
	item := Item{
		Value:      blob.FromBytes(data),
		Flags:      uint32(flags),
		Expiration: normalizeExp(exp, c.store.Now()),
		CAS:        casID,
	}
	c.verdict(noreply, applyLent(c.store, v, c.key, &item))
	return nil
}

func (c *textConn) verdict(noreply bool, err error) {
	if !noreply {
		c.w.verdict(err)
	}
}

func (c *textConn) delete(args []byte) {
	args, noreply := cutNoreply(args)
	key, _ := nextField(args)
	if key == nil {
		c.w.str(badFormat)
		return
	}
	err := deleteKey(c.store, key)
	if noreply {
		return
	}
	if err != nil {
		c.w.str("NOT_FOUND\r\n")
	} else {
		c.w.str("DELETED\r\n")
	}
}

func (c *textConn) incrDecr(incr bool, args []byte) {
	args, noreply := cutNoreply(args)
	var f [2][]byte
	if splitFields(args, f[:]) != 2 {
		c.w.str(badFormat)
		return
	}
	delta, ok := parseUint(f[1])
	if !ok {
		c.w.str("CLIENT_ERROR invalid numeric delta argument\r\n")
		return
	}
	v, err := incrDecr(c.store, f[0], delta, incr)
	switch {
	case noreply:
	case err != nil:
		c.w.verdict(err)
	default:
		c.w.uint(v)
		c.w.str("\r\n")
	}
}

func (c *textConn) statsSlabs() {
	w := c.w.Writer
	classes := c.store.SlabStats()
	ids := make([]int, 0, len(classes))
	for ci := range classes {
		ids = append(ids, ci)
	}
	sort.Ints(ids)
	for _, ci := range ids {
		cl := classes[ci]
		fmt.Fprintf(w, "STAT %d:chunk_size %d\r\n", ci+1, cl.ChunkSize)
		fmt.Fprintf(w, "STAT %d:used_chunks %d\r\n", ci+1, cl.UsedChunks)
		fmt.Fprintf(w, "STAT %d:free_chunks %d\r\n", ci+1, cl.FreeChunks)
	}
	c.w.str("END\r\n")
}

// statRows is what "stats" reports, in order, on both protocols.
var statRows = [...]struct {
	name string
	get  func(*Stats) uint64
}{
	{"cmd_get", func(st *Stats) uint64 { return st.CmdGet }},
	{"cmd_set", func(st *Stats) uint64 { return st.CmdSet }},
	{"get_hits", func(st *Stats) uint64 { return st.GetHits }},
	{"get_misses", func(st *Stats) uint64 { return st.GetMisses }},
	{"delete_hits", func(st *Stats) uint64 { return st.DeleteHits }},
	{"delete_misses", func(st *Stats) uint64 { return st.DeleteMiss }},
	{"evictions", func(st *Stats) uint64 { return st.Evictions }},
	{"expired", func(st *Stats) uint64 { return st.Expired }},
	{"curr_items", func(st *Stats) uint64 { return st.CurrItems }},
	{"total_items", func(st *Stats) uint64 { return st.TotalItems }},
	{"bytes", func(st *Stats) uint64 { return uint64(st.Bytes) }},
	{"limit_maxbytes", func(st *Stats) uint64 { return uint64(st.LimitBytes) }},
}

func (c *textConn) stats() {
	st := c.store.Stats()
	for _, row := range statRows {
		c.w.str("STAT ")
		c.w.str(row.name)
		c.w.str(" ")
		c.w.uint(row.get(&st))
		c.w.str("\r\n")
	}
	c.w.str("END\r\n")
}
