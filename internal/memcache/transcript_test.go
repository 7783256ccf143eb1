package memcache

import (
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
