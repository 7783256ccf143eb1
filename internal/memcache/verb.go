package memcache

// verb is one request of the memcached protocols: its row in verbs. The
// text and binary serve loops, the TCP client and the simulated protocol
// all name a request by its verb, and the store runs the storage verbs
// through one Store.apply.
type verb uint8

const (
	verbGet verb = iota
	verbGets
	verbSet
	verbAdd
	verbReplace
	verbCAS
	verbAppend
	verbPrepend
	verbDelete
	verbIncr
	verbDecr
	verbStats
	verbFlush
	verbVersion
	verbVerbosity
	verbNoop
	verbQuit
)

// binOp is one binary opcode of a verb and how its reply is framed.
type binOp struct {
	code  byte
	quiet bool // a miss is not answered
	key   bool // a hit's reply echoes the key
}

// verbs is the verb table: each verb's text command name, "" when only the
// binary protocol has it, and its binary opcodes, none when only the text
// protocol has it. A binary set, add or replace that carries a CAS in its
// header is a cas.
var verbs = [...]struct {
	text string
	bin  []binOp
}{
	verbGet:       {"get", []binOp{{code: 0x00}, {code: 0x09, quiet: true}, {code: 0x0c, key: true}, {code: 0x0d, quiet: true, key: true}}},
	verbGets:      {"gets", nil},
	verbSet:       {"set", []binOp{{code: 0x01}}},
	verbAdd:       {"add", []binOp{{code: 0x02}}},
	verbReplace:   {"replace", []binOp{{code: 0x03}}},
	verbCAS:       {"cas", nil},
	verbAppend:    {"append", []binOp{{code: 0x0e}}},
	verbPrepend:   {"prepend", []binOp{{code: 0x0f}}},
	verbDelete:    {"delete", []binOp{{code: 0x04}}},
	verbIncr:      {"incr", []binOp{{code: 0x05}}},
	verbDecr:      {"decr", []binOp{{code: 0x06}}},
	verbStats:     {"stats", []binOp{{code: 0x10}}},
	verbFlush:     {"flush_all", []binOp{{code: 0x08}}},
	verbVersion:   {"version", []binOp{{code: 0x0b}}},
	verbVerbosity: {"verbosity", nil},
	verbNoop:      {"", []binOp{{code: 0x0a}}},
	verbQuit:      {"quit", []binOp{{code: 0x07}}},
}

func (v verb) String() string { return verbs[v].text }

// textVerb returns the verb a text command line names.
func textVerb(name []byte) (verb, bool) {
	for v := range verbs {
		if verbs[v].text != "" && string(name) == verbs[v].text {
			return verb(v), true
		}
	}
	return 0, false
}

// binaryVerb returns the verb of a binary opcode and how that opcode frames
// its reply.
func binaryVerb(code byte) (verb, binOp, bool) {
	for v := range verbs {
		for _, op := range verbs[v].bin {
			if op.code == code {
				return verb(v), op, true
			}
		}
	}
	return 0, binOp{}, false
}
