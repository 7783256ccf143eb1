package memcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// The binary opcodes as the protocol defines them, kept apart from the
// verb table so that the tests built on them check the table too.
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

// binFrame builds a binary-protocol request frame.
func binFrame(opcode byte, key string, extras, value []byte, cas uint64) []byte {
	buf := make([]byte, 24, 24+len(extras)+len(key)+len(value))
	buf[0] = binReqMagic
	buf[1] = opcode
	binary.BigEndian.PutUint16(buf[2:], uint16(len(key)))
	buf[4] = uint8(len(extras))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(buf[12:], 0xdeadbeef)
	binary.BigEndian.PutUint64(buf[16:], cas)
	buf = append(buf, extras...)
	buf = append(buf, key...)
	buf = append(buf, value...)
	return buf
}

func setExtras(flags, expiry uint32) []byte {
	e := make([]byte, 8)
	binary.BigEndian.PutUint32(e[0:], flags)
	binary.BigEndian.PutUint32(e[4:], expiry)
	return e
}

// binExchange runs frames through ServeBinaryConn and returns all response
// frames parsed in order.
type binResp struct {
	h     binHeader
	extra []byte
	key   []byte
	value []byte
}

func binExchange(t *testing.T, frames ...[]byte) []binResp {
	t.Helper()
	store := newTestStore(16)
	return binExchangeOn(t, store, frames...)
}

func binExchangeOn(t *testing.T, store *Store, frames ...[]byte) []binResp {
	t.Helper()
	var in bytes.Buffer
	for _, f := range frames {
		in.Write(f)
	}
	var out bytes.Buffer
	err := ServeBinaryConn(store, readWriter{r: newStringReaderFromBytes(in.Bytes()), w: &out})
	if err != nil && err != io.EOF {
		t.Fatalf("ServeBinaryConn: %v", err)
	}
	var resps []binResp
	r := bytes.NewReader(out.Bytes())
	for {
		h, err := readBinHeader(r)
		if err == io.EOF {
			return resps
		}
		if err != nil {
			t.Fatalf("parse response header: %v", err)
		}
		if h.magic != binRespMagic {
			t.Fatalf("bad response magic 0x%02x", h.magic)
		}
		body := make([]byte, h.bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			t.Fatalf("response body: %v", err)
		}
		resps = append(resps, binResp{
			h:     h,
			extra: body[:h.extrasLen],
			key:   body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)],
			value: body[int(h.extrasLen)+int(h.keyLen):],
		})
	}
}

func TestBinarySetGetRoundTrip(t *testing.T) {
	resps := binExchange(t,
		binFrame(binOpSet, "bkey", setExtras(42, 0), []byte("bvalue"), 0),
		binFrame(binOpGet, "bkey", nil, nil, 0),
	)
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if resps[0].h.status != binStatusOK {
		t.Fatalf("set status = %d", resps[0].h.status)
	}
	if resps[0].h.cas == 0 {
		t.Error("set response carries no CAS")
	}
	get := resps[1]
	if get.h.status != binStatusOK || string(get.value) != "bvalue" {
		t.Fatalf("get = status %d value %q", get.h.status, get.value)
	}
	if binary.BigEndian.Uint32(get.extra) != 42 {
		t.Errorf("flags = %d, want 42", binary.BigEndian.Uint32(get.extra))
	}
	if get.h.opaque != 0xdeadbeef {
		t.Error("opaque not echoed")
	}
}

func TestBinaryGetMiss(t *testing.T) {
	resps := binExchange(t, binFrame(binOpGet, "missing", nil, nil, 0))
	if resps[0].h.status != binStatusKeyNotFound {
		t.Errorf("status = %d, want KeyNotFound", resps[0].h.status)
	}
}

func TestBinaryQuietGetSuppressesMiss(t *testing.T) {
	resps := binExchange(t,
		binFrame(binOpGetQ, "missing", nil, nil, 0),
		binFrame(binOpNoop, "", nil, nil, 0),
	)
	// Only the noop responds.
	if len(resps) != 1 || resps[0].h.opcode != binOpNoop {
		t.Fatalf("responses = %d, first opcode 0x%02x", len(resps), resps[0].h.opcode)
	}
}

func TestBinaryGetKReturnsKey(t *testing.T) {
	resps := binExchange(t,
		binFrame(binOpSet, "kk", setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpGetK, "kk", nil, nil, 0),
	)
	if string(resps[1].key) != "kk" {
		t.Errorf("GETK key = %q", resps[1].key)
	}
}

func TestBinaryAddReplaceSemantics(t *testing.T) {
	resps := binExchange(t,
		binFrame(binOpReplace, "r", setExtras(0, 0), []byte("x"), 0), // NotStored
		binFrame(binOpAdd, "r", setExtras(0, 0), []byte("x"), 0),     // OK
		binFrame(binOpAdd, "r", setExtras(0, 0), []byte("y"), 0),     // NotStored
	)
	want := []uint16{binStatusNotStored, binStatusOK, binStatusNotStored}
	for i, w := range want {
		if resps[i].h.status != w {
			t.Errorf("resp %d status = %d, want %d", i, resps[i].h.status, w)
		}
	}
}

func TestBinaryCASConflict(t *testing.T) {
	store := newTestStore(16)
	first := binExchangeOn(t, store, binFrame(binOpSet, "c", setExtras(0, 0), []byte("v1"), 0))
	goodCAS := first[0].h.cas
	resps := binExchangeOn(t, store,
		binFrame(binOpSet, "c", setExtras(0, 0), []byte("v2"), goodCAS),
		binFrame(binOpSet, "c", setExtras(0, 0), []byte("v3"), goodCAS), // stale now
	)
	if resps[0].h.status != binStatusOK {
		t.Errorf("cas with current token = %d", resps[0].h.status)
	}
	if resps[1].h.status != binStatusKeyExists {
		t.Errorf("stale cas = %d, want KeyExists", resps[1].h.status)
	}
}

func TestBinaryDelete(t *testing.T) {
	resps := binExchange(t,
		binFrame(binOpSet, "d", setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpDelete, "d", nil, nil, 0),
		binFrame(binOpDelete, "d", nil, nil, 0),
	)
	if resps[1].h.status != binStatusOK || resps[2].h.status != binStatusKeyNotFound {
		t.Errorf("delete statuses = %d, %d", resps[1].h.status, resps[2].h.status)
	}
}

func incrExtras(delta, initial uint64, expiry uint32) []byte {
	e := make([]byte, 20)
	binary.BigEndian.PutUint64(e[0:], delta)
	binary.BigEndian.PutUint64(e[8:], initial)
	binary.BigEndian.PutUint32(e[16:], expiry)
	return e
}

func TestBinaryIncrSeedsAndCounts(t *testing.T) {
	store := newTestStore(16)
	resps := binExchangeOn(t, store,
		binFrame(binOpIncr, "n", incrExtras(5, 100, 0), nil, 0), // seeds to 100
		binFrame(binOpIncr, "n", incrExtras(5, 0, 0), nil, 0),   // 105
		binFrame(binOpDecr, "n", incrExtras(6, 0, 0), nil, 0),   // 99
	)
	want := []uint64{100, 105, 99}
	for i, w := range want {
		if got := binary.BigEndian.Uint64(resps[i].value); got != w {
			t.Errorf("counter step %d = %d, want %d", i, got, w)
		}
	}
}

func TestBinaryIncrMissWithNoSeed(t *testing.T) {
	resps := binExchange(t, binFrame(binOpIncr, "n", incrExtras(1, 0, 0xffffffff), nil, 0))
	if resps[0].h.status != binStatusKeyNotFound {
		t.Errorf("status = %d, want KeyNotFound (expiry -1 means do not seed)", resps[0].h.status)
	}
}

func TestBinaryAppendPrepend(t *testing.T) {
	store := newTestStore(16)
	binExchangeOn(t, store,
		binFrame(binOpSet, "ap", setExtras(0, 0), []byte("mid"), 0),
		binFrame(binOpAppend, "ap", nil, []byte("-end"), 0),
		binFrame(binOpPrepend, "ap", nil, []byte("start-"), 0),
	)
	it, err := store.Get("ap")
	if err != nil || string(it.Value.Bytes()) != "start-mid-end" {
		t.Errorf("value = %q, %v", it.Value.Bytes(), err)
	}
}

func TestBinaryVersionNoopFlush(t *testing.T) {
	store := newTestStore(16)
	resps := binExchangeOn(t, store,
		binFrame(binOpSet, "f", setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpVersion, "", nil, nil, 0),
		binFrame(binOpFlush, "", nil, nil, 0),
		binFrame(binOpNoop, "", nil, nil, 0),
	)
	if len(resps[1].value) == 0 {
		t.Error("version response empty")
	}
	if store.Len() != 0 {
		t.Error("flush did not clear the store")
	}
	_ = resps
}

// TestBinaryStatStreams: stat emits one key/value frame per row of the text
// protocol's "stats" reply — the same names with the same values, in the
// same order — then an empty terminator.
func TestBinaryStatStreams(t *testing.T) {
	store := newTestStore(16)
	resps := binExchangeOn(t, store,
		binFrame(binOpSet, "s", setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpGet, "s", nil, nil, 0),
		binFrame(binOpGet, "absent", nil, nil, 0),
		binFrame(binOpStat, "", nil, nil, 0),
	)
	var got strings.Builder
	for _, r := range resps[3 : len(resps)-1] {
		fmt.Fprintf(&got, "STAT %s %s\r\n", r.key, r.value)
	}
	if last := resps[len(resps)-1]; len(last.key) != 0 || len(last.value) != 0 {
		t.Errorf("stat stream ends with %q=%q, want the empty terminator", last.key, last.value)
	}
	want := strings.TrimSuffix(talkTo(t, store, "stats\r\n"), "END\r\n")
	if got.String() != want || strings.Count(want, "STAT ") != 12 {
		t.Errorf("binary stat rows:\n%s\ntext stats rows (want 12):\n%s", got.String(), want)
	}
}

func TestBinaryUnknownOpcode(t *testing.T) {
	resps := binExchange(t, binFrame(0x7f, "", nil, nil, 0))
	if resps[0].h.status != binStatusUnknownCmd {
		t.Errorf("status = %d, want UnknownCmd", resps[0].h.status)
	}
}

func TestAutoDetectServesBothProtocolsOverTCP(t *testing.T) {
	_, addr := startServer(t)

	// Text connection.
	tc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tc.Write([]byte("set auto 0 0 2\r\nok\r\n"))
	buf := make([]byte, 64)
	n, _ := tc.Read(buf)
	if string(buf[:n]) != "STORED\r\n" {
		t.Fatalf("text path answered %q", buf[:n])
	}

	// Binary connection to the same port.
	bc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bc.Write(binFrame(binOpGet, "auto", nil, nil, 0))
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(bc, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != binRespMagic {
		t.Fatalf("binary path magic = 0x%02x", hdr[0])
	}
	bodyLen := binary.BigEndian.Uint32(hdr[8:])
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(bc, body); err != nil {
		t.Fatal(err)
	}
	if string(body[4:]) != "ok" { // 4 bytes of flags extras precede the value
		t.Errorf("binary get returned %q", body[4:])
	}
}

// newStringReaderFromBytes adapts raw bytes to the readWriter test helper.
func newStringReaderFromBytes(b []byte) *bytes.Reader { return bytes.NewReader(b) }
