package memcache

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// transcriptClock is the store clock of every transcript case: exptimes
// are judged against it, so the table is independent of the host clock. It
// lies past the 30-day cutoff, so the smallest absolute exptime is already
// in the past while the largest relative one is not.
const transcriptClock = 3000000

var bigValue = strings.Repeat("v", MaxValueLen+1)

// transcripts is the text protocol's behaviour contract: raw request bytes
// and the exact reply bytes, each case against a fresh 4 MB store. The
// replies were recorded from the fmt/Sscanf/strings.Fields ServeConn
// (commit 426b44b) before the byte-level codec replaced it; a well-formed
// exchange must stay byte-identical across any rewrite of the parser.
var transcripts = []struct{ name, in, out string }{
	{"get hit", "set a 5 0 3\r\nfoo\r\nget a\r\n", "STORED\r\nVALUE a 5 3\r\nfoo\r\nEND\r\n"},
	{"get miss", "get nothing\r\n", "END\r\n"},
	{"get no key", "get\r\n", "END\r\n"},
	{"get N keys hits and misses",
		"set a 1 0 1\r\nx\r\nset b 2 0 2\r\nyy\r\nset c 3 0 0\r\n\r\nget a m1 b m2 c a\r\n",
		"STORED\r\nSTORED\r\nSTORED\r\nVALUE a 1 1\r\nx\r\nVALUE b 2 2\r\nyy\r\nVALUE c 3 0\r\n\r\nVALUE a 1 1\r\nx\r\nEND\r\n"},
	{"gets", "set a 7 0 1\r\nx\r\nset b 0 0 1\r\ny\r\ngets b a nope\r\n",
		"STORED\r\nSTORED\r\nVALUE b 0 1 2\r\ny\r\nVALUE a 7 1 1\r\nx\r\nEND\r\n"},
	{"max flags", "set a 4294967295 0 1\r\nx\r\nget a\r\n", "STORED\r\nVALUE a 4294967295 1\r\nx\r\nEND\r\n"},

	{"set", "set k 0 0 5\r\nhello\r\nset k 0 0 3\r\nbye\r\nget k\r\n", "STORED\r\nSTORED\r\nVALUE k 0 3\r\nbye\r\nEND\r\n"},
	{"set noreply", "set k 0 0 5 noreply\r\nhello\r\nget k\r\n", "VALUE k 0 5\r\nhello\r\nEND\r\n"},
	{"add", "add k 0 0 1\r\nx\r\nadd k 0 0 1\r\ny\r\nget k\r\n", "STORED\r\nNOT_STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\n"},
	{"add noreply", "add k 0 0 1 noreply\r\nx\r\nadd k 0 0 1 noreply\r\ny\r\nget k\r\n", "VALUE k 0 1\r\nx\r\nEND\r\n"},
	{"replace", "replace k 0 0 1\r\nx\r\nset k 0 0 1\r\ny\r\nreplace k 9 0 1\r\nz\r\nget k\r\n",
		"NOT_STORED\r\nSTORED\r\nSTORED\r\nVALUE k 9 1\r\nz\r\nEND\r\n"},
	{"replace noreply", "replace k 0 0 1 noreply\r\nx\r\nset k 0 0 1\r\ny\r\nreplace k 9 0 1 noreply\r\nz\r\nget k\r\n",
		"STORED\r\nVALUE k 9 1\r\nz\r\nEND\r\n"},
	{"append", "append k 0 0 1\r\nx\r\nset k 3 0 3\r\nmid\r\nappend k 0 0 4\r\n-end\r\nget k\r\n",
		"NOT_STORED\r\nSTORED\r\nSTORED\r\nVALUE k 3 7\r\nmid-end\r\nEND\r\n"},
	{"append noreply", "set k 3 0 3\r\nmid\r\nappend k 0 0 4 noreply\r\n-end\r\nget k\r\n", "STORED\r\nVALUE k 3 7\r\nmid-end\r\nEND\r\n"},
	{"prepend", "prepend k 0 0 1\r\nx\r\nset k 3 0 3\r\nmid\r\nprepend k 0 0 6\r\nstart-\r\nget k\r\n",
		"NOT_STORED\r\nSTORED\r\nSTORED\r\nVALUE k 3 9\r\nstart-mid\r\nEND\r\n"},
	{"prepend noreply", "set k 3 0 3\r\nmid\r\nprepend k 0 0 6 noreply\r\nstart-\r\nget k\r\n", "STORED\r\nVALUE k 3 9\r\nstart-mid\r\nEND\r\n"},
	{"cas", "cas k 0 0 1 1\r\nx\r\nset k 0 0 1\r\na\r\ngets k\r\ncas k 0 0 1 99\r\nb\r\ncas k 4 0 1 1\r\nc\r\ngets k\r\n",
		"NOT_FOUND\r\nSTORED\r\nVALUE k 0 1 1\r\na\r\nEND\r\nEXISTS\r\nSTORED\r\nVALUE k 4 1 2\r\nc\r\nEND\r\n"},
	{"cas noreply", "set k 0 0 1\r\na\r\ncas k 0 0 1 99 noreply\r\nb\r\ncas k 4 0 1 1 noreply\r\nc\r\ngets k\r\n",
		"STORED\r\nVALUE k 4 1 2\r\nc\r\nEND\r\n"},

	{"delete", "set k 0 0 1\r\nx\r\ndelete k\r\ndelete k\r\nget k\r\n", "STORED\r\nDELETED\r\nNOT_FOUND\r\nEND\r\n"},
	{"delete noreply and legacy time", "set k 0 0 1\r\nx\r\ndelete k noreply\r\nset j 0 0 1\r\ny\r\ndelete j 0\r\nget k j\r\n",
		"STORED\r\nSTORED\r\nDELETED\r\nEND\r\n"},
	{"delete no key", "delete\r\ndelete noreply\r\n", "CLIENT_ERROR bad command line format\r\nCLIENT_ERROR bad command line format\r\n"},
	{"incr decr", "set n 6 0 2\r\n10\r\nincr n 5\r\ndecr n 100\r\nincr n 18446744073709551615\r\nget n\r\nincr missing 1\r\ndecr missing 1\r\n",
		"STORED\r\n15\r\n0\r\n18446744073709551615\r\nVALUE n 6 20\r\n18446744073709551615\r\nEND\r\nNOT_FOUND\r\nNOT_FOUND\r\n"},
	{"incr noreply", "set n 0 0 1\r\n1\r\nincr n 41 noreply\r\nget n\r\n", "STORED\r\nVALUE n 0 2\r\n42\r\nEND\r\n"},
	{"incr non-numeric delta", "set n 0 0 1\r\n1\r\nincr n abc\r\nincr n -1\r\nincr n 18446744073709551616\r\n",
		"STORED\r\nCLIENT_ERROR invalid numeric delta argument\r\nCLIENT_ERROR invalid numeric delta argument\r\nCLIENT_ERROR invalid numeric delta argument\r\n"},
	{"incr non-numeric value", "set s 0 0 3\r\nabc\r\nincr s 1\r\ndecr s 1\r\n",
		"STORED\r\nCLIENT_ERROR cannot increment or decrement non-numeric value\r\nCLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
	{"incr wrong arg count", "incr n\r\nincr n 1 2\r\ndecr\r\n",
		"CLIENT_ERROR bad command line format\r\nCLIENT_ERROR bad command line format\r\nCLIENT_ERROR bad command line format\r\n"},

	{"stats", "set a 0 0 1\r\nx\r\nget a\r\nget b\r\ndelete a\r\ndelete a\r\nstats\r\n",
		"STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nEND\r\nDELETED\r\nNOT_FOUND\r\n" +
			"STAT cmd_get 2\r\nSTAT cmd_set 1\r\nSTAT get_hits 1\r\nSTAT get_misses 1\r\nSTAT delete_hits 1\r\nSTAT delete_misses 1\r\n" +
			"STAT evictions 0\r\nSTAT expired 0\r\nSTAT curr_items 0\r\nSTAT total_items 1\r\nSTAT bytes 0\r\nSTAT limit_maxbytes 4194304\r\nEND\r\n"},
	{"stats slabs", "set a 0 0 5\r\nhello\r\nset b 0 0 200\r\n" + strings.Repeat("b", 200) + "\r\nstats slabs\r\n",
		"STORED\r\nSTORED\r\nSTAT 1:chunk_size 88\r\nSTAT 1:used_chunks 1\r\nSTAT 1:free_chunks 11914\r\n" +
			"STAT 6:chunk_size 296\r\nSTAT 6:used_chunks 1\r\nSTAT 6:free_chunks 3541\r\nEND\r\n"},
	{"flush_all", "set a 0 0 1\r\nx\r\nflush_all\r\nget a\r\nset a 0 0 1\r\ny\r\nflush_all noreply\r\nget a\r\n", "STORED\r\nOK\r\nEND\r\nSTORED\r\nEND\r\n"},
	{"version verbosity", "version\r\nverbosity 1\r\nverbosity 1 noreply\r\nverbosity\r\n", "VERSION 1.2.8-imca\r\nOK\r\nOK\r\n"},
	{"quit stops the loop", "get a\r\nquit\r\nget b\r\n", "END\r\n"},
	{"unknown verb", "bogus command\r\nGET a\r\nget_ a\r\n", "ERROR\r\nERROR\r\nERROR\r\n"},
	{"empty lines are skipped", "\r\n\n\r\r\nget a\r\n", "END\r\n"},

	{"bad command line format",
		"set k 0 0\r\nset k 0 0 1 junk\r\nset k x 0 1\r\nset k 0 x 1\r\nset k 0 0 x\r\nset k 0 0 -1\r\nset k 4294967296 0 1\r\n" +
			"set k 0 0 9223372036854775808\r\ncas k 0 0 1\r\ncas k 0 0 1 x\r\nset\r\nset k 0 0 noreply\r\n",
		strings.Repeat("CLIENT_ERROR bad command line format\r\n", 12)},
	{"bad data chunk", "set a 0 0 2\r\nxxx\r\nget a\r\nset a 0 0 2 noreply\r\nxxx\r\nget a\r\n", "CLIENT_ERROR bad data chunk\r\nEND\r\nEND\r\n"},
	{"bad key", "set " + strings.Repeat("k", MaxKeyLen+1) + " 0 0 1\r\nx\r\nset a\x01b 0 0 1\r\nx\r\nset a\x7fb 0 0 1 noreply\r\nx\r\nappend a\x01b 0 0 1\r\nx\r\n" +
		"set " + strings.Repeat("k", MaxKeyLen) + " 0 0 1\r\nx\r\n",
		"CLIENT_ERROR bad key\r\nCLIENT_ERROR bad key\r\nCLIENT_ERROR bad key\r\nSTORED\r\n"},
	{"too large", "set big 0 0 1048577\r\n" + bigValue + "\r\nget big\r\nset big 0 0 1048577 noreply\r\n" + bigValue + "\r\nget big\r\n" +
		"set full 0 0 1048576\r\n" + bigValue[1:] + "\r\nget full\r\n",
		"SERVER_ERROR object too large for cache\r\nEND\r\nEND\r\nSERVER_ERROR object too large for cache\r\nEND\r\n"},

	{"tab and multi-space separators", "set\tk  7 \t 0   2 \r\nhi\r\nget   k\t\tk \r\ndelete \t k  \r\n",
		"STORED\r\nVALUE k 7 2\r\nhi\r\nVALUE k 7 2\r\nhi\r\nEND\r\nDELETED\r\n"},
	{"bare newline terminators", "set k 0 0 2\nhi\r\nget k\n", "STORED\r\nVALUE k 0 2\r\nhi\r\nEND\r\n"},
	{"signed numbers", "set k 0 +0 +2\r\nhi\r\nget k\r\nset k +1 0 2\r\n", "STORED\r\nVALUE k 0 2\r\nhi\r\nEND\r\nCLIENT_ERROR bad command line format\r\n"},
	{"negative exptime is already expired", "set k 0 -1 1\r\nx\r\nget k\r\n", "STORED\r\nEND\r\n"},
	{"relative exptime", "set k 0 60 1\r\nx\r\nget k\r\n", "STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\n"},
	{"30-day exptime is still relative", "set k 0 2592000 1\r\nx\r\nget k\r\n", "STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\n"},
	{"absolute exptime in the past", "set k 0 2592001 1\r\nx\r\nget k\r\nset j 0 2592001 1\r\ny\r\nadd j 0 0 1\r\nz\r\n", "STORED\r\nEND\r\nSTORED\r\nSTORED\r\n"},
	{"absolute exptime in the future", "set k 0 3000001 1\r\nx\r\nget k\r\nset j 0 3000000 1\r\ny\r\nget j\r\n", "STORED\r\nVALUE k 0 1\r\nx\r\nEND\r\nSTORED\r\nEND\r\n"},
	{"pipelined batch in one read",
		"set a 0 0 1\r\n1\r\nset b 0 0 1 noreply\r\n2\r\nget a b\r\nincr a 1\r\ndelete b\r\ngets a\r\nbogus\r\nversion\r\nquit\r\n",
		"STORED\r\nVALUE a 0 1\r\n1\r\nVALUE b 0 1\r\n2\r\nEND\r\n2\r\nDELETED\r\nVALUE a 0 1 3\r\n2\r\nEND\r\nERROR\r\nVERSION 1.2.8-imca\r\n"},
	{"binary-safe values", "set bin 0 0 6\r\nab\r\ncd\r\nget bin\r\nset nul 0 0 4\r\n\x00\r\n\xff\r\nget nul\r\nset crlf 0 0 2\r\n\r\n\r\nget crlf\r\n",
		"STORED\r\nVALUE bin 0 6\r\nab\r\ncd\r\nEND\r\nSTORED\r\nVALUE nul 0 4\r\n\x00\r\n\xff\r\nEND\r\nSTORED\r\nVALUE crlf 0 2\r\n\r\n\r\nEND\r\n"},
}

func TestTranscripts(t *testing.T) {
	for _, tc := range transcripts {
		store := NewStore(4<<20, func() int64 { return transcriptClock })
		if got := talkTo(t, store, tc.in); got != tc.out {
			t.Errorf("%s:\n  in   %.300q\n  got  %.300q\n  want %.300q", tc.name, tc.in, got, tc.out)
		}
	}
}

// frames joins request frames into one stream.
func frames(fs ...[]byte) string { return string(bytes.Join(fs, nil)) }

// res is one binary response frame with binFrame's opaque echoed.
func res(opcode byte, status uint16, cas uint64, extras, key, value string) string {
	h := make([]byte, 24)
	h[0], h[1], h[4] = binRespMagic, opcode, byte(len(extras))
	binary.BigEndian.PutUint16(h[2:], uint16(len(key)))
	binary.BigEndian.PutUint16(h[6:], status)
	binary.BigEndian.PutUint32(h[8:], uint32(len(extras)+len(key)+len(value)))
	binary.BigEndian.PutUint32(h[12:], 0xdeadbeef)
	binary.BigEndian.PutUint64(h[16:], cas)
	return string(h) + extras + key + value
}

// be32 and be64 are big-endian numbers as a frame carries them.
func be32(v uint32) string { return string(binary.BigEndian.AppendUint32(nil, v)) }
func be64(v uint64) string { return string(binary.BigEndian.AppendUint64(nil, v)) }

// extrasPastBody is a header whose extras overrun its body.
var extrasPastBody = func() []byte {
	f := binFrame(binOpNoop, "", nil, nil, 0)
	f[4] = 5
	return f
}()

// binaryTranscripts is the binary protocol's behaviour contract, as
// transcripts is the text protocol's: request frames and the exact reply
// bytes, each case against a fresh 4 MB store on transcriptClock. The
// replies were recorded from the serve loop that switched on each opcode
// before the verb table replaced it. Reply statuses: 0 OK, 1 key not
// found, 2 key exists, 3 too large, 4 invalid arguments, 5 not stored,
// 6 non-numeric, 0x81 unknown command.
var binaryTranscripts = []struct {
	name, in, out string
}{
	{"set then get", frames(binFrame(binOpSet, "k", setExtras(5, 0), []byte("hello"), 0), binFrame(binOpGet, "k", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpGet, 0, 1, be32(5), "", "hello")},
	{"get miss", frames(binFrame(binOpGet, "nothing", nil, nil, 0)),
		res(binOpGet, 1, 0, "", "", "")},
	{"quiet get suppresses only a miss", frames(binFrame(binOpGetQ, "absent", nil, nil, 0), binFrame(binOpSet, "k", setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpGetQ, "k", nil, nil, 0), binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpGetQ, 0, 1, be32(0), "", "v") +
			res(binOpNoop, 0, 0, "", "", "")},
	{"getk and getkq echo the key", frames(binFrame(binOpSet, "kk", setExtras(9, 0), []byte("v"), 0), binFrame(binOpGetK, "kk", nil, nil, 0),
		binFrame(binOpGetK, "absent", nil, nil, 0), binFrame(binOpGetKQ, "absent", nil, nil, 0), binFrame(binOpGetKQ, "kk", nil, nil, 0),
		binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpGetK, 0, 1, be32(9), "kk", "v") +
			res(binOpGetK, 1, 0, "", "", "") +
			res(binOpGetKQ, 0, 1, be32(9), "kk", "v") +
			res(binOpNoop, 0, 0, "", "", "")},
	{"add and replace", frames(binFrame(binOpReplace, "r", setExtras(0, 0), []byte("x"), 0), binFrame(binOpAdd, "r", setExtras(1, 0), []byte("x"), 0),
		binFrame(binOpAdd, "r", setExtras(2, 0), []byte("y"), 0), binFrame(binOpReplace, "r", setExtras(3, 0), []byte("z"), 0),
		binFrame(binOpGet, "r", nil, nil, 0)),
		res(binOpReplace, 5, 0, "", "", "") +
			res(binOpAdd, 0, 1, "", "", "") +
			res(binOpAdd, 5, 0, "", "", "") +
			res(binOpReplace, 0, 2, "", "", "") +
			res(binOpGet, 0, 2, be32(3), "", "z")},
	{"cas carried in the header", frames(binFrame(binOpSet, "c", setExtras(0, 0), []byte("v1"), 0), binFrame(binOpSet, "c", setExtras(0, 0), []byte("v2"), 1),
		binFrame(binOpSet, "c", setExtras(0, 0), []byte("v3"), 1), binFrame(binOpAdd, "c", setExtras(4, 0), []byte("v4"), 2),
		binFrame(binOpReplace, "c", setExtras(0, 0), []byte("v5"), 99), binFrame(binOpSet, "absent", setExtras(0, 0), []byte("v"), 5),
		binFrame(binOpGet, "c", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpSet, 0, 2, "", "", "") +
			res(binOpSet, 2, 1, "", "", "") +
			res(binOpAdd, 0, 3, "", "", "") +
			res(binOpReplace, 2, 99, "", "", "") +
			res(binOpSet, 1, 5, "", "", "") +
			res(binOpGet, 0, 3, be32(4), "", "v4")},
	{"set refuses bad extras", frames(binFrame(binOpSet, "k", nil, []byte("v"), 0), binFrame(binOpAdd, "k", []byte{0, 0, 0, 0}, []byte("v"), 0),
		binFrame(binOpGet, "k", nil, nil, 0)),
		res(binOpSet, 4, 0, "", "", "") +
			res(binOpAdd, 4, 0, "", "", "") +
			res(binOpGet, 1, 0, "", "", "")},
	{"append and prepend", frames(binFrame(binOpAppend, "ap", nil, []byte("x"), 0), binFrame(binOpSet, "ap", setExtras(3, 0), []byte("mid"), 0),
		binFrame(binOpAppend, "ap", nil, []byte("-end"), 0), binFrame(binOpPrepend, "ap", nil, []byte("start-"), 0),
		binFrame(binOpPrepend, "absent", nil, []byte("x"), 0), binFrame(binOpGet, "ap", nil, nil, 0)),
		res(binOpAppend, 5, 0, "", "", "") +
			res(binOpSet, 0, 1, "", "", "") +
			res(binOpAppend, 0, 0, "", "", "") +
			res(binOpPrepend, 0, 0, "", "", "") +
			res(binOpPrepend, 5, 0, "", "", "") +
			res(binOpGet, 0, 3, be32(3), "", "start-mid-end")},
	{"delete", frames(binFrame(binOpSet, "d", setExtras(0, 0), []byte("v"), 0), binFrame(binOpDelete, "d", nil, nil, 0),
		binFrame(binOpDelete, "d", nil, nil, 0), binFrame(binOpGet, "d", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpDelete, 0, 0, "", "", "") +
			res(binOpDelete, 1, 0, "", "", "") +
			res(binOpGet, 1, 0, "", "", "")},
	{"incr seeds when expiry is not 0xffffffff", frames(binFrame(binOpIncr, "n", incrExtras(5, 100, 0), nil, 0), binFrame(binOpIncr, "n", incrExtras(5, 0, 0), nil, 0),
		binFrame(binOpDecr, "n", incrExtras(6, 0, 0), nil, 0), binFrame(binOpDecr, "n", incrExtras(1000, 0, 0), nil, 0),
		binFrame(binOpDecr, "m", incrExtras(1, 7, 60), nil, 0), binFrame(binOpGet, "n", nil, nil, 0), binFrame(binOpGet, "m", nil, nil, 0)),
		res(binOpIncr, 0, 0, "", "", be64(100)) +
			res(binOpIncr, 0, 0, "", "", be64(105)) +
			res(binOpDecr, 0, 0, "", "", be64(99)) +
			res(binOpDecr, 0, 0, "", "", be64(0)) +
			res(binOpDecr, 0, 0, "", "", be64(7)) +
			res(binOpGet, 0, 4, be32(0), "", "0") +
			res(binOpGet, 0, 5, be32(0), "", "7")},
	{"no seed when expiry is 0xffffffff", frames(binFrame(binOpIncr, "n", incrExtras(1, 7, 0xffffffff), nil, 0),
		binFrame(binOpDecr, "n", incrExtras(1, 7, 0xffffffff), nil, 0), binFrame(binOpGet, "n", nil, nil, 0)),
		res(binOpIncr, 1, 0, "", "", "") +
			res(binOpDecr, 1, 0, "", "", "") +
			res(binOpGet, 1, 0, "", "", "")},
	{"incr refuses bad extras and text values", frames(binFrame(binOpIncr, "n", nil, nil, 0), binFrame(binOpSet, "s", setExtras(0, 0), []byte("abc"), 0),
		binFrame(binOpIncr, "s", incrExtras(1, 0, 0), nil, 0)),
		res(binOpIncr, 4, 0, "", "", "") +
			res(binOpSet, 0, 1, "", "", "") +
			res(binOpIncr, 6, 0, "", "", "")},
	{"stat stream", frames(binFrame(binOpSet, "s", setExtras(0, 0), []byte("v"), 0), binFrame(binOpGet, "s", nil, nil, 0),
		binFrame(binOpGet, "absent", nil, nil, 0), binFrame(binOpDelete, "absent", nil, nil, 0), binFrame(binOpStat, "", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpGet, 0, 1, be32(0), "", "v") +
			res(binOpGet, 1, 0, "", "", "") +
			res(binOpDelete, 1, 0, "", "", "") +
			res(binOpStat, 0, 0, "", "cmd_get", "2") +
			res(binOpStat, 0, 0, "", "cmd_set", "1") +
			res(binOpStat, 0, 0, "", "get_hits", "1") +
			res(binOpStat, 0, 0, "", "get_misses", "1") +
			res(binOpStat, 0, 0, "", "delete_hits", "0") +
			res(binOpStat, 0, 0, "", "delete_misses", "1") +
			res(binOpStat, 0, 0, "", "evictions", "0") +
			res(binOpStat, 0, 0, "", "expired", "0") +
			res(binOpStat, 0, 0, "", "curr_items", "1") +
			res(binOpStat, 0, 0, "", "total_items", "1") +
			res(binOpStat, 0, 0, "", "bytes", "50") +
			res(binOpStat, 0, 0, "", "limit_maxbytes", "4194304") +
			res(binOpStat, 0, 0, "", "", "")},
	{"flush version noop", frames(binFrame(binOpSet, "f", setExtras(0, 0), []byte("v"), 0), binFrame(binOpFlush, "", nil, nil, 0),
		binFrame(binOpGet, "f", nil, nil, 0), binFrame(binOpVersion, "", nil, nil, 0), binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpFlush, 0, 0, "", "", "") +
			res(binOpGet, 1, 0, "", "", "") +
			res(binOpVersion, 0, 0, "", "", "1.2.8-imca") +
			res(binOpNoop, 0, 0, "", "", "")},
	{"quit stops the loop", frames(binFrame(binOpNoop, "", nil, nil, 0), binFrame(binOpQuit, "", nil, nil, 0), binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpNoop, 0, 0, "", "", "") +
			res(binOpQuit, 0, 0, "", "", "")},
	{"unknown opcode", frames(binFrame(0x7f, "k", nil, []byte("v"), 0), binFrame(0x11, "", nil, nil, 0), binFrame(binOpNoop, "", nil, nil, 0)),
		res(0x7f, 0x81, 0, "", "", "") +
			res(0x11, 0x81, 0, "", "", "") +
			res(binOpNoop, 0, 0, "", "", "")},
	{"bad key", frames(binFrame(binOpSet, "a b", setExtras(0, 0), []byte("v"), 0), binFrame(binOpSet, strings.Repeat("k", MaxKeyLen+1), setExtras(0, 0), []byte("v"), 0),
		binFrame(binOpAppend, "a\x01b", nil, []byte("v"), 0), binFrame(binOpDelete, "", nil, nil, 0)),
		res(binOpSet, 4, 0, "", "", "") +
			res(binOpSet, 4, 0, "", "", "") +
			res(binOpAppend, 4, 0, "", "", "") +
			res(binOpDelete, 1, 0, "", "", "")},
	{"expiry", frames(binFrame(binOpSet, "k", setExtras(0, 2592001), []byte("x"), 0), binFrame(binOpGet, "k", nil, nil, 0),
		binFrame(binOpSet, "j", setExtras(0, 60), []byte("y"), 0), binFrame(binOpGet, "j", nil, nil, 0)),
		res(binOpSet, 0, 1, "", "", "") +
			res(binOpGet, 1, 0, "", "", "") +
			res(binOpSet, 0, 2, "", "", "") +
			res(binOpGet, 0, 2, be32(0), "", "y")},
	{"too large value is refused and skipped", frames(binFrame(binOpSet, "big", setExtras(0, 0), []byte(bigValue), 0), binFrame(binOpGet, "big", nil, nil, 0)),
		res(binOpSet, 3, 0, "", "", "") +
			res(binOpGet, 1, 0, "", "", "")},
	{"bad magic ends the connection", frames(binFrame(binOpNoop, "", nil, nil, 0), append([]byte{binRespMagic}, binFrame(binOpNoop, "", nil, nil, 0)[1:]...),
		binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpNoop, 0, 0, "", "", "")},
	{"inconsistent lengths end the connection", frames(binFrame(binOpNoop, "", nil, nil, 0), extrasPastBody,
		binFrame(binOpNoop, "", nil, nil, 0)),
		res(binOpNoop, 0, 0, "", "", "")},
}

func TestBinaryTranscripts(t *testing.T) {
	for _, tc := range binaryTranscripts {
		store := NewStore(4<<20, func() int64 { return transcriptClock })
		var out bytes.Buffer
		_ = ServeBinaryConn(store, readWriter{strings.NewReader(tc.in), &out}) // every case ends at EOF or on a refused frame
		if got := out.String(); got != tc.out {
			t.Errorf("%s:\n  in   %.300q\n  got  %.300q\n  want %.300q", tc.name, tc.in, got, tc.out)
		}
	}
}
