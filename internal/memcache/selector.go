package memcache

import (
	"hash/crc32"
	"math"
)

// Selector maps a key to one of n cache servers.
//
// The paper's SMCache/CMCache use libmemcache's default CRC32 hash for
// locating blocks on MCDs, and replace it with a static modulo of the block
// number ("round-robin") for the IOzone throughput experiment (Fig. 9),
// where spreading consecutive blocks across all MCDs maximizes aggregate
// bandwidth.
type Selector interface {
	Pick(key string, n int) int
}

// ReplicaSelector extends a Selector with a replica placement: the server
// holding the second copy of a key under R=2 replication. Replica must
// return an index different from Pick whenever n >= 2, and Pick itself
// when n < 2 (a single-node bank cannot replicate).
type ReplicaSelector interface {
	Selector
	Replica(key string, n int) int
}

// ReplicaFor returns the replica index for key under sel, falling back to
// the hash-successor convention (primary+1 mod n) for selectors that do
// not implement ReplicaSelector. With n < 2 it returns the primary: there
// is nowhere else to put a copy.
func ReplicaFor(sel Selector, key string, n int) int { return replicaKey(sel, key, n) }

// selectKey is sel.Pick for a key held as a string or as borrowed bytes —
// the simulated bank routes the bytes of its requests. The paper's two
// distributions hash either in place, through the one body their Pick
// calls; any other selector (consistent hashing included) is handed a
// string, a copy per key only the hashing comparison pays.
func selectKey[K string | []byte](sel Selector, key K, n int) int {
	switch s := sel.(type) {
	case CRC32Selector:
		return crc32Pick(key, n)
	case BlockModuloSelector:
		return blockModuloPick(s.BlockSize, key, n)
	}
	return sel.Pick(string(key), n)
}

// replicaKey is ReplicaFor for a key held as a string or as bytes.
func replicaKey[K string | []byte](sel Selector, key K, n int) int {
	if n < 2 {
		return selectKey(sel, key, n)
	}
	switch s := sel.(type) {
	case CRC32Selector, BlockModuloSelector:
		// The successor, below.
	case ReplicaSelector:
		return s.Replica(string(key), n)
	}
	return (selectKey(sel, key, n) + 1) % n
}

// CRC32Selector distributes keys by CRC32, following libmemcache's default
// hashing: the checksum is folded to 15 bits before the modulo.
type CRC32Selector struct{}

// ieeeTable drives the checksum below.
var ieeeTable = crc32.MakeTable(crc32.IEEE)

// crc32Key is crc32.ChecksumIEEE over a key, byte by byte, so hashing a
// string key needs no []byte conversion (which the compiler cannot always
// keep off the heap). The table-walk recurrence is the canonical CRC32
// definition, so the checksum is identical.
func crc32Key[K string | []byte](key K) uint32 {
	h := ^uint32(0)
	for i := 0; i < len(key); i++ {
		h = ieeeTable[byte(h)^key[i]] ^ (h >> 8)
	}
	return ^h
}

// Pick implements Selector.
func (CRC32Selector) Pick(key string, n int) int { return crc32Pick(key, n) }

func crc32Pick[K string | []byte](key K, n int) int {
	if n <= 1 {
		return 0
	}
	h := (crc32Key(key) >> 16) & 0x7fff
	return int(h % uint32(n))
}

// Replica implements ReplicaSelector: the successor server in index
// order, the natural "next bucket" for a modulo-style hash.
func (s CRC32Selector) Replica(key string, n int) int {
	if n < 2 {
		return 0
	}
	return (s.Pick(key, n) + 1) % n
}

// BlockModuloSelector distributes block keys round-robin by block number.
// It expects IMCa data keys of the form "<path>:<byte offset>" and assigns
// server (offset/BlockSize) mod n. Keys without a numeric offset suffix
// (e.g. ":stat" keys) fall back to CRC32.
type BlockModuloSelector struct {
	BlockSize int64
}

// Pick implements Selector.
func (s BlockModuloSelector) Pick(key string, n int) int { return blockModuloPick(s.BlockSize, key, n) }

func blockModuloPick[K string | []byte](bs int64, key K, n int) int {
	if n <= 1 {
		return 0
	}
	i := len(key) - 1
	for i >= 0 && key[i] != ':' {
		i--
	}
	if i >= 0 && bs > 0 {
		if off, ok := parseOffset(key[i+1:]); ok {
			return int((off / bs) % int64(n))
		}
	}
	// Non-numeric suffixes (":stat" keys) hash like libmemcache would.
	return crc32Pick(key, n)
}

// parseOffset reads s as strconv.ParseInt(s, 10, 64) does, in place. An
// overflowing offset still reads as the saturated boundary value, so it maps
// like a huge offset instead of silently rehashing the block to a
// CRC32-chosen server; a negative one (corrupt key) clamps to block zero
// rather than producing a negative server index. ok is false where ParseInt
// reports a syntax error.
func parseOffset[K string | []byte](s K) (off int64, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if len(s) > 0 && (s[0] == '+' || neg) {
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var u uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i]) - '0'
		if d > 9 {
			return 0, false
		}
		if u > (math.MaxUint64-d)/10 {
			// ParseInt stops at the first overflowing digit too.
			u = math.MaxUint64
			break
		}
		u = u*10 + d
	}
	if neg {
		return 0, true
	}
	return int64(min(u, math.MaxInt64)), true
}

// Replica implements ReplicaSelector: the successor server in index
// order, which for block keys is also the next round-robin bucket.
func (s BlockModuloSelector) Replica(key string, n int) int {
	if n < 2 {
		return 0
	}
	return (s.Pick(key, n) + 1) % n
}
