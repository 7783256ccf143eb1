package memcache

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/sim"
)

// The simulated daemon against the real one. Both are protocol paths onto
// the same Store, so one script must draw the same replies from each and
// leave the same store behind; what can differ is the paths, which is what
// this tests. The script is in text-protocol terms. The TCP side sends each
// step as raw bytes to a loopback Server and reads the reply; the simulated
// side sends what its three-verb protocol can say (an unconditional set, a
// get of any width, a delete) through SimClient and the fabric to a
// SimServer, applies the rest to that daemon's store directly, and renders
// what came back as the text protocol would. Both stores run on clocks the
// script advances.

type diffOp struct {
	verb    string // set add replace cas append prepend incr decr get gets delete sleep
	keys    []string
	value   string
	flags   uint32
	exp     int64  // a protocol exptime; for sleep, the seconds
	delta   uint64 // incr, decr
	noreply bool
}

// plain reports whether the simulated protocol can carry op.
func (op diffOp) plain() bool {
	switch op.verb {
	case "get", "gets":
		return true
	case "set":
		return op.flags == 0 && op.exp == 0 && !op.noreply
	case "delete":
		return !op.noreply
	}
	return false
}

// normalize maps a reply onto what both protocols can tell apart: a
// SimClient set reports only whether the daemon stored the item.
func (op diffOp) normalize(reply string) string {
	if op.verb == "set" && op.plain() && reply != "STORED\r\n" {
		return "refused\r\n"
	}
	return reply
}

func verdictLine(err error) string {
	for _, v := range verdicts {
		if v.err == err {
			return v.line + "\r\n"
		}
	}
	return "SERVER_ERROR " + err.Error() + "\r\n"
}

// simSide runs ops against a SimServer from a simulated process.
type simSide struct {
	p      *sim.Proc
	cl     *SimClient
	st     *Store
	tokens map[string]uint64 // the CAS each key's last gets returned
}

func (s *simSide) do(op diffOp) string {
	if op.verb == "sleep" {
		s.p.Sleep(time.Duration(op.exp) * time.Second)
		return ""
	}
	key := op.keys[0]
	if op.verb == "get" || op.verb == "gets" {
		var b strings.Builder
		items := []*Item{nil}
		if len(op.keys) == 1 { // the single-key get is its own path
			items[0], _ = s.cl.Get(s.p, key)
		} else {
			items = s.cl.GetMulti(s.p, op.keys)
		}
		for _, it := range items {
			if it == nil {
				continue
			}
			fmt.Fprintf(&b, "VALUE %s %d %d", it.Key, it.Flags, it.Value.Len())
			if op.verb == "gets" {
				fmt.Fprintf(&b, " %d", it.CAS)
				s.tokens[it.Key] = it.CAS
			}
			fmt.Fprintf(&b, "\r\n%s\r\n", it.Value.Bytes())
		}
		return b.String() + "END\r\n"
	}
	if op.plain() {
		if op.verb == "set" {
			return verdictLine(s.cl.Set(s.p, key, blob.FromString(op.value)))
		}
		if s.cl.Delete(s.p, key) {
			return "DELETED\r\n"
		}
		return "NOT_FOUND\r\n"
	}
	item := &Item{Key: key, Value: blob.FromString(op.value), Flags: op.flags,
		Expiration: normalizeExp(op.exp, s.st.Now()), CAS: s.tokens[key]}
	var err error
	var n uint64
	switch op.verb {
	case "set":
		err = s.st.Set(item)
	case "add":
		err = s.st.Add(item)
	case "replace":
		err = s.st.Replace(item)
	case "cas":
		err = s.st.CompareAndSwap(item)
	case "append":
		err = s.st.Append(key, item.Value)
	case "prepend":
		err = s.st.Prepend(key, item.Value)
	case "incr", "decr":
		n, err = s.st.IncrDecr(key, op.delta, op.verb == "incr")
	case "delete":
		err = s.st.Delete(key)
	}
	switch {
	case op.noreply:
		return ""
	case err == nil && (op.verb == "incr" || op.verb == "decr"):
		return strconv.FormatUint(n, 10) + "\r\n"
	}
	return verdictLine(err)
}

// tcpSide runs ops against a loopback Server over one raw connection.
type tcpSide struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	clock  *atomic.Int64
	tokens map[string]uint64
}

func (s *tcpSide) line() string {
	line, err := s.r.ReadString('\n')
	if err != nil {
		s.t.Fatalf("reading the daemon's reply: %v", err)
	}
	return line
}

func (s *tcpSide) do(op diffOp) string {
	if op.verb == "sleep" {
		s.clock.Add(op.exp)
		return ""
	}
	req, block := op.verb+" "+strings.Join(op.keys, " "), ""
	switch op.verb {
	case "get", "gets", "delete":
	case "incr", "decr":
		req += fmt.Sprintf(" %d", op.delta)
	default:
		req += fmt.Sprintf(" %d %d %d", op.flags, op.exp, len(op.value))
		block = op.value + "\r\n"
		if op.verb == "cas" {
			req += fmt.Sprintf(" %d", s.tokens[op.keys[0]])
		}
	}
	if op.noreply {
		req += " noreply"
	}
	if _, err := s.conn.Write([]byte(req + "\r\n" + block)); err != nil {
		s.t.Fatalf("%s: %v", op.verb, err)
	}
	switch {
	case op.noreply:
		return ""
	case op.verb != "get" && op.verb != "gets":
		return s.line()
	}
	var b strings.Builder
	for {
		line := s.line()
		b.WriteString(line)
		f := strings.Fields(line)
		if f[0] != "VALUE" {
			return b.String()
		}
		n, _ := strconv.Atoi(f[3])
		data := make([]byte, n+2)
		if _, err := io.ReadFull(s.r, data); err != nil {
			s.t.Fatalf("reading %s's value: %v", f[1], err)
		}
		b.Write(data)
		if op.verb == "gets" {
			s.tokens[f[1]], _ = strconv.ParseUint(f[4], 10, 64)
		}
	}
}

// diffScript is the fixed opening — each case the roadmap names, once, in
// a known state — followed by a seeded random walk over the same verbs.
func diffScript(seed int64) []diffOp {
	one := func(verb, key, value string) diffOp { return diffOp{verb: verb, keys: []string{key}, value: value} }
	max64 := strconv.FormatUint(^uint64(0), 10)
	long := strings.Repeat("k", MaxKeyLen+1)
	block := strings.Repeat("b", 300_000) // two of these fill a slab page, so the walk's eight keys evict
	script := []diffOp{
		one("set", "k7", block), // first, so that the blocks' slab class owns a page of the three
		one("set", "a", "alpha"), one("get", "a", ""), one("gets", "a", ""),
		{verb: "cas", keys: []string{"a"}, value: "beta", flags: 3}, one("gets", "a", ""), // the token matches
		one("set", "a", "gamma"), {verb: "cas", keys: []string{"a"}, value: "stale"}, // it no longer does
		{verb: "cas", keys: []string{"absent"}, value: "x"},
		one("add", "a", "no"), one("add", "b", "bravo"), one("replace", "c", "no"), one("replace", "b", "bravo2"),
		one("append", "b", "-tail"), one("prepend", "b", "head-"), one("append", "absent", "x"),
		{verb: "get", keys: []string{"a", "absent", "b", "a"}},
		one("set", "n", max64), {verb: "incr", keys: []string{"n"}, delta: 1}, // overflow: wraps to 0
		{verb: "decr", keys: []string{"n"}, delta: 5}, {verb: "incr", keys: []string{"n"}, delta: 41},
		{verb: "incr", keys: []string{"a"}, delta: 1}, {verb: "incr", keys: []string{"absent"}, delta: 1},
		{verb: "incr", keys: []string{"n"}, delta: 1, noreply: true}, one("get", "n", ""),
		one("set", "big", strings.Repeat("v", MaxValueLen+1)), one("add", "big", strings.Repeat("v", MaxValueLen+1)), // oversize
		one("get", "big", ""),
		one("set", "bad\x01key", "x"), one("add", "bad\x01key", "x"), one("get", "bad\x01key", ""), one("delete", "bad\x01key", ""),
		one("set", long, "x"), one("replace", long, "x"), one("get", long, ""),
		{verb: "set", keys: []string{"q"}, value: "quiet", flags: 9, noreply: true}, one("get", "q", ""),
		{verb: "add", keys: []string{"q"}, value: "no", noreply: true}, {verb: "delete", keys: []string{"q"}, noreply: true}, one("get", "q", ""),
		{verb: "set", keys: []string{"e"}, value: "brief", exp: 2}, {verb: "set", keys: []string{"gone"}, value: "x", exp: -1},
		{verb: "get", keys: []string{"e", "gone"}}, {verb: "sleep", exp: 1}, one("get", "e", ""),
		{verb: "sleep", exp: 1}, one("get", "e", ""), one("add", "e", "again"), // expired: add succeeds
		one("delete", "a", ""), one("delete", "a", ""),
	}
	rng := rand.New(rand.NewSource(seed))
	verbs := []string{"set", "set", "set", "add", "replace", "cas", "append", "prepend", "incr", "decr",
		"get", "get", "gets", "gets", "delete", "sleep"}
	for i := 0; i < 600; i++ {
		op := diffOp{verb: verbs[rng.Intn(len(verbs))], keys: []string{fmt.Sprintf("k%d", rng.Intn(8))}}
		switch rng.Intn(8) {
		case 0, 1:
			op.value = strconv.Itoa(rng.Intn(1000))
		case 2, 3:
			op.value = fmt.Sprintf("%06d", i) + block
		default:
			op.value = fmt.Sprintf("value-%d", i)
		}
		if rng.Intn(4) == 0 {
			op.flags, op.exp = uint32(rng.Intn(100)), int64(rng.Intn(4)-1)
		}
		switch op.verb {
		case "sleep":
			op.exp = 1
		case "get", "gets":
			for n := rng.Intn(4); n > 0; n-- {
				op.keys = append(op.keys, fmt.Sprintf("k%d", rng.Intn(10)))
			}
		case "incr", "decr":
			op.delta = uint64(rng.Intn(50))
		}
		op.noreply = op.verb != "get" && op.verb != "gets" && rng.Intn(6) == 0
		script = append(script, op)
	}
	all := diffOp{verb: "gets"}
	for i := 0; i < 8; i++ {
		all.keys = append(all.keys, fmt.Sprintf("k%d", i))
	}
	return append(script, all) // also drains the last noreply
}

func TestSimServerMatchesTCPServer(t *testing.T) {
	const limit = 3 << 20
	script := diffScript(1)

	env, cl := simBank(1, limit>>20)
	simStore := cl.Servers()[0].Store()
	var simReplies []string
	env.Process("script", func(p *sim.Proc) {
		side := &simSide{p: p, cl: cl, st: simStore, tokens: map[string]uint64{}}
		for _, op := range script {
			simReplies = append(simReplies, op.normalize(side.do(op)))
		}
	})
	env.Run()

	var clock atomic.Int64
	srv := NewServer(limit)
	srv.Store().Now = clock.Load
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	side := &tcpSide{t: t, conn: conn, r: bufio.NewReader(conn), clock: &clock, tokens: map[string]uint64{}}
	for i, op := range script {
		if got := op.normalize(side.do(op)); got != simReplies[i] {
			t.Fatalf("step %d, %s %q (flags %d exp %d delta %d noreply %v, %d value bytes):\n tcp %.200q\n sim %.200q",
				i, op.verb, op.keys, op.flags, op.exp, op.delta, op.noreply, len(op.value), got, simReplies[i])
		}
	}

	tcpStore := srv.Store()
	t.Logf("%d steps; the stores end at %+v", len(script), simStore.Stats())
	if got, want := tcpStore.Stats(), simStore.Stats(); got != want {
		t.Errorf("Stats\n tcp %+v\n sim %+v", got, want)
	}
	if got, want := tcpStore.SlabStats(), simStore.SlabStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("SlabStats\n tcp %v\n sim %v", got, want)
	}
	keys := simStore.Keys()
	if got := tcpStore.Keys(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("Keys\n tcp %q\n sim %q", got, keys)
	}
	for _, k := range keys {
		got, _ := tcpStore.Peek(k)
		want, _ := simStore.Peek(k)
		if !got.Equal(want) {
			t.Errorf("Peek(%q): tcp holds %d bytes, sim %d, and they differ", k, got.Len(), want.Len())
		}
		g, _ := tcpStore.GetView([]byte(k), nil)
		w, _ := simStore.GetView([]byte(k), nil)
		if g.Flags != w.Flags || g.Expiration != w.Expiration || g.CAS != w.CAS {
			t.Errorf("%q: tcp flags %d exp %d cas %d, sim flags %d exp %d cas %d", k, g.Flags, g.Expiration, g.CAS, w.Flags, w.Expiration, w.CAS)
		}
	}
	if st := simStore.Stats(); st.Evictions == 0 || st.Expired == 0 || len(keys) == 0 {
		t.Errorf("the script evicted %d items, expired %d and left %d: part of it went unexercised", st.Evictions, st.Expired, len(keys))
	}
}
