package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"imca/internal/blob"
)

// Client is a memcached text-protocol client for one or more TCP servers,
// the Go analogue of libmemcache. Keys are routed to servers by the
// configured Selector (CRC32 by default).
type Client struct {
	selector Selector

	mu    sync.Mutex
	conns []*clientConn
}

type clientConn struct {
	addr string
	mu   sync.Mutex
	c    io.Closer
	r    *bufio.Reader
	w    wireWriter
	gets int // get lines sent whose END has not been read yet
	// err is the failure that left a reply unread or unparseable (see
	// fail); once set, every call on the connection returns it.
	err error
	// items and slab are what get replies are cut from (see cut); like
	// the reader and writer, they are touched only under mu.
	items []Item
	slab  []byte
}

const (
	// replyItemChunk is how many get replies' Items one chunk holds.
	replyItemChunk = 64
	// replySlabSize is the size of one slab of get replies' values, and
	// replyCutMax the largest value cut from one: a quarter of a slab, so a
	// slab left behind is at least three quarters used.
	replySlabSize = 32 << 10
	replyCutMax   = replySlabSize / 4
)

func newClientConn(addr string, c io.ReadWriteCloser) *clientConn {
	return &clientConn{addr: addr, c: c, r: bufio.NewReader(c), w: wireWriter{Writer: bufio.NewWriter(c)}}
}

// acquire locks the connection for one call, unless an earlier call failed
// it.
func (cc *clientConn) acquire() error {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
	}
	return cc.err
}

// fail takes the connection out of service: err cut a request or a reply
// short, or the reply could not be parsed, so whatever the server sends
// next would be read as the answer to the next call. The socket is closed
// and err latched. A one-line verdict the client does not know is a
// complete reply and does not come here.
func (cc *clientConn) fail(err error) error {
	cc.err = err
	cc.c.Close()
	return err
}

// Dial connects to the given server addresses.
func Dial(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("memcache: no servers")
	}
	cl := &Client{selector: CRC32Selector{}}
	for _, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.conns = append(cl.conns, newClientConn(a, c))
	}
	return cl, nil
}

// SetSelector replaces the key distribution function.
func (cl *Client) SetSelector(s Selector) { cl.selector = s }

// Close closes all server connections.
func (cl *Client) Close() error {
	var first error
	for _, cc := range cl.conns {
		// A failed connection is closed already.
		if err := cc.c.Close(); err != nil && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// lock returns key's connection, locked — or, before a verb has written
// anything, ErrBadKey: a space would make two keys, a CRLF a second command.
func (cl *Client) lock(key string) (*clientConn, error) {
	if !validKey(key) {
		return nil, ErrBadKey
	}
	cc := cl.conns[cl.selector.Pick(key, len(cl.conns))]
	return cc, cc.acquire()
}

// Set stores item unconditionally.
func (cl *Client) Set(item *Item) error { return cl.storeCmd(verbSet, item) }

// Add stores item only if absent.
func (cl *Client) Add(item *Item) error { return cl.storeCmd(verbAdd, item) }

// Replace stores item only if present.
func (cl *Client) Replace(item *Item) error { return cl.storeCmd(verbReplace, item) }

// CompareAndSwap stores item only if its CAS token (from Gets) still
// matches the server's.
func (cl *Client) CompareAndSwap(item *Item) error { return cl.storeCmd(verbCAS, item) }

func (cl *Client) storeCmd(v verb, item *Item) error {
	cc, err := cl.lock(item.Key)
	if err != nil {
		return err
	}
	defer cc.mu.Unlock()
	val := item.Value.Bytes()
	w := &cc.w
	w.command(v, item.Key)
	w.field(uint64(item.Flags))
	w.fieldInt(item.Expiration)
	w.field(uint64(len(val)))
	if v == verbCAS {
		w.field(item.CAS)
	}
	w.str("\r\n")
	_, _ = w.Write(val)
	w.str("\r\n")
	line, err := cc.roundTrip()
	if err != nil {
		return err
	}
	return verdictOf(line)
}

// command starts a request line: verb v and its key.
func (w *wireWriter) command(v verb, key string) {
	w.str(v.String())
	w.str(" ")
	w.str(key)
}

// roundTrip sends the request written so far and returns the first line of
// the reply, a borrow that dies at the next read.
func (cc *clientConn) roundTrip() ([]byte, error) {
	if err := cc.w.Flush(); err != nil {
		return nil, cc.fail(err)
	}
	return cc.readLine()
}

func (cc *clientConn) readLine() ([]byte, error) {
	line, err := readLine(cc.r)
	if err != nil {
		return nil, cc.fail(err)
	}
	return line, nil
}

// Get fetches one key. The Item is the caller's; one whose value is 8 KB or
// less shares memory with up to 63 other replies, so keeping it keeps at
// most 550 KB alive.
func (cl *Client) Get(key string) (*Item, error) { return cl.get(verbGet, key) }

// Gets fetches one key with its CAS token for a later CompareAndSwap. The
// Item is the caller's; one whose value is 8 KB or less shares memory with
// up to 63 other replies, so keeping it keeps at most 550 KB alive.
func (cl *Client) Gets(key string) (*Item, error) { return cl.get(verbGets, key) }

func (cl *Client) get(v verb, key string) (*Item, error) {
	cc, err := cl.lock(key)
	if err != nil {
		return nil, err
	}
	defer cc.mu.Unlock()
	keys := [1]string{key}
	if err := cc.sendGet(v, keys[:]); err != nil {
		return nil, err
	}
	var got *Item
	if err := cc.readValues(keys[:], func(it *Item) { got = it }); err != nil {
		return nil, err
	}
	if got == nil {
		return nil, ErrCacheMiss
	}
	return got, nil
}

// GetMulti fetches many keys with one request per server, as libmemcache's
// mget does: every server's request is on the wire before the first reply
// is awaited, so the call costs the slowest server, not the sum of them.
// The Items are the caller's; one whose value is 8 KB or less shares memory
// with up to 63 other replies, so keeping it keeps at most 550 KB alive.
func (cl *Client) GetMulti(keys []string) (map[string]*Item, error) {
	byConn := make([][]string, len(cl.conns))
	for _, k := range keys {
		if !validKey(k) {
			return nil, ErrBadKey
		}
		i := cl.selector.Pick(k, len(cl.conns))
		byConn[i] = append(byConn[i], k)
	}
	// Connections are locked in index order (so two GetMultis cannot
	// deadlock) and held until their replies are read.
	var first error
	for i, ks := range byConn {
		if len(ks) == 0 {
			continue
		}
		cc := cl.conns[i]
		err := cc.acquire()
		if err == nil {
			defer cc.mu.Unlock()
			err = cc.sendGet(verbGet, ks)
		}
		if err != nil {
			byConn[i] = nil // nothing was asked of it, so nothing is to be read
			if first == nil {
				first = err
			}
		}
	}
	// Every connection written to is read, even after an error elsewhere:
	// a reply left unread would answer that connection's next request.
	out := make(map[string]*Item, len(keys))
	for i, ks := range byConn {
		if len(ks) == 0 {
			continue
		}
		err := cl.conns[i].readValues(ks, func(it *Item) { out[it.Key] = it })
		if err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// sendGet writes and flushes get or gets v for keys, starting another
// command line wherever one would pass maxLineLen; cc.gets counts the
// lines, each of which the server answers up to its own END.
func (cc *clientConn) sendGet(v verb, keys []string) error {
	cc.gets = 0
	n := 0
	for _, k := range keys {
		if n == 0 || n+1+len(k) > maxLineLen {
			if n > 0 {
				cc.w.str("\r\n")
			}
			cc.w.str(v.String())
			n = len(v.String())
			cc.gets++
		}
		cc.w.str(" ")
		cc.w.str(k)
		n += 1 + len(k)
	}
	cc.w.str("\r\n")
	if err := cc.w.Flush(); err != nil {
		return cc.fail(err)
	}
	return nil
}

// readValues reads the reply to sendGet — VALUE blocks up to the END of
// each line sent — and hands every item to emit. A server answers in
// request order, so each reply key is looked for in keys from the previous
// match on, and the item takes the caller's string instead of a copy of
// the reply's.
func (cc *clientConn) readValues(keys []string, emit func(*Item)) (err error) {
	defer func() {
		if err != nil {
			cc.fail(err)
		}
	}()
	for cc.gets > 0 {
		line, err := readLine(cc.r)
		if err != nil {
			return err
		}
		if string(line) == "END" {
			cc.gets--
			continue
		}
		var f [5][]byte
		n := splitFields(line, f[:])
		flags, okFlags := parseUint(f[2])
		size, okSize := parseUint(f[3])
		cas, okCAS := uint64(0), true
		if n == 5 { // a gets reply
			cas, okCAS = parseUint(f[4])
		}
		if n < 4 || n > 5 || string(f[0]) != "VALUE" || !okFlags || flags > math.MaxUint32 || !okSize || !okCAS {
			return fmt.Errorf("memcache: bad VALUE line %q", line)
		}
		if size > MaxValueLen {
			return fmt.Errorf("memcache: server announced a %d-byte value: %w", size, ErrTooLarge)
		}
		for len(keys) > 0 && keys[0] != string(f[1]) {
			keys = keys[1:]
		}
		if len(keys) == 0 {
			return fmt.Errorf("memcache: server sent a key not asked for: %q", f[1])
		}
		it, data := cc.cut(int(size))
		ok, err := readBlock(cc.r, data)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("memcache: bad data terminator")
		}
		*it = Item{Key: keys[0], Value: blob.FromBytes(data), Flags: uint32(flags), CAS: cas}
		emit(it)
		keys = keys[1:]
	}
	return nil
}

// cut returns a new Item and size bytes for one get reply, both the
// caller's to keep. A value of up to replyCutMax bytes takes its Item from
// the connection's chunk and its bytes from the connection's slab, as a
// three-index slice (cap == len), so an append to it cannot reach the next
// value; a chunk or a slab that runs out is replaced, never reused. A
// larger value gets a buffer and an Item of its own: a chunk's Items point
// only into slabs, so one kept Item never holds its chunk-mates' large
// values. The collector frees a chunk and its slabs once no Item from them
// is kept.
func (cc *clientConn) cut(size int) (*Item, []byte) {
	if size > replyCutMax {
		return new(Item), make([]byte, size)
	}
	if len(cc.items) == 0 {
		cc.items = make([]Item, replyItemChunk)
	}
	if size > len(cc.slab) {
		cc.slab = make([]byte, replySlabSize)
	}
	it, data := &cc.items[0], cc.slab[:size:size]
	cc.items, cc.slab = cc.items[1:], cc.slab[size:]
	return it, data
}

// Delete removes a key.
func (cl *Client) Delete(key string) error {
	cc, err := cl.lock(key)
	if err != nil {
		return err
	}
	defer cc.mu.Unlock()
	cc.w.command(verbDelete, key)
	cc.w.str("\r\n")
	line, err := cc.roundTrip()
	if err != nil {
		return err
	}
	if string(line) == "DELETED" {
		return nil
	}
	return verdictOf(line)
}

// Incr adds delta to a numeric value and returns the result.
func (cl *Client) Incr(key string, delta uint64) (uint64, error) {
	return cl.incrDecr(verbIncr, key, delta)
}

// Decr subtracts delta (flooring at zero) and returns the result.
func (cl *Client) Decr(key string, delta uint64) (uint64, error) {
	return cl.incrDecr(verbDecr, key, delta)
}

func (cl *Client) incrDecr(v verb, key string, delta uint64) (uint64, error) {
	cc, err := cl.lock(key)
	if err != nil {
		return 0, err
	}
	defer cc.mu.Unlock()
	cc.w.command(v, key)
	cc.w.field(delta)
	cc.w.str("\r\n")
	line, err := cc.roundTrip()
	if err != nil {
		return 0, err
	}
	if v, ok := parseUint(line); ok {
		return v, nil
	}
	return 0, verdictOf(line)
}

// ServerStats returns each server's stats keyed by address.
func (cl *Client) ServerStats() (map[string]map[string]string, error) {
	out := make(map[string]map[string]string)
	for _, cc := range cl.conns {
		m, err := cc.stats()
		if err != nil {
			return nil, err
		}
		out[cc.addr] = m
	}
	return out, nil
}

func (cc *clientConn) stats() (map[string]string, error) {
	if err := cc.acquire(); err != nil {
		return nil, err
	}
	defer cc.mu.Unlock()
	cc.w.str(verbStats.String())
	cc.w.str("\r\n")
	m := make(map[string]string)
	for line, err := cc.roundTrip(); ; line, err = cc.readLine() {
		if err != nil {
			return nil, err
		}
		if string(line) == "END" {
			return m, nil
		}
		var f [3][]byte
		if splitFields(line, f[:]) == 3 && string(f[0]) == "STAT" {
			m[string(f[1])] = string(f[2])
		}
	}
}
