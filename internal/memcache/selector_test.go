package memcache

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRC32KeyMatchesChecksumIEEE: the in-place checksum of a key held as
// a string or as bytes — at any offset into a larger buffer — is
// crc32.ChecksumIEEE's, for every key length the protocol allows, and the
// pick folds it as libmemcache does.
func TestCRC32KeyMatchesChecksumIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	buf := make([]byte, MaxKeyLen+8)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(MaxKeyLen)
		if trial < MaxKeyLen {
			n = 1 + trial // every length once, 64 and more among them
		}
		rng.Read(buf)
		at := rng.Intn(8)
		key := buf[at : at+n]
		want := crc32.ChecksumIEEE(key)
		if got := crc32Key(key); got != want {
			t.Fatalf("%d-byte key at offset %d: crc32Key([]byte) = %#x, want %#x", n, at, got, want)
		}
		if got := crc32Key(string(key)); got != want {
			t.Fatalf("%d-byte key: crc32Key(string) = %#x, want %#x", n, got, want)
		}
		servers := 1 + rng.Intn(8)
		pick := 0
		if servers > 1 {
			pick = int((want >> 16) & 0x7fff % uint32(servers))
		}
		if got := crc32Pick(key, servers); got != pick || (CRC32Selector{}).Pick(string(key), servers) != pick {
			t.Fatalf("%d-byte key over %d servers: pick %d, want %d", n, servers, got, pick)
		}
	}
}

func TestCRC32SelectorInRangeAndDeterministic(t *testing.T) {
	s := CRC32Selector{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("/dir/file-%d:stat", i)
		got := s.Pick(k, 7)
		if got < 0 || got >= 7 {
			t.Fatalf("Pick(%q) = %d out of range", k, got)
		}
		if again := s.Pick(k, 7); again != got {
			t.Fatalf("Pick not deterministic for %q", k)
		}
	}
}

func TestCRC32SelectorSingleServer(t *testing.T) {
	if got := (CRC32Selector{}).Pick("anything", 1); got != 0 {
		t.Errorf("Pick with n=1 = %d", got)
	}
}

func TestCRC32SelectorSpread(t *testing.T) {
	s := CRC32Selector{}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[s.Pick(fmt.Sprintf("/data/f%d:0", i), 4)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("server %d got %d of 4000 keys (poor spread)", i, c)
		}
	}
}

func TestBlockModuloSelectorRoundRobins(t *testing.T) {
	s := BlockModuloSelector{BlockSize: 2048}
	for blk := int64(0); blk < 16; blk++ {
		key := fmt.Sprintf("/bench/file1:%d", blk*2048)
		want := int(blk % 4)
		if got := s.Pick(key, 4); got != want {
			t.Errorf("block %d -> server %d, want %d", blk, got, want)
		}
	}
}

func TestBlockModuloSelectorConsecutiveBlocksDistinctServers(t *testing.T) {
	// The Fig. 9 rationale: a large sequential read touches all MCDs.
	s := BlockModuloSelector{BlockSize: 2048}
	seen := map[int]bool{}
	for blk := int64(0); blk < 4; blk++ {
		seen[s.Pick(fmt.Sprintf("/f:%d", blk*2048), 4)] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive blocks used %d servers, want 4", len(seen))
	}
}

func TestBlockModuloSelectorFallbackForStatKeys(t *testing.T) {
	s := BlockModuloSelector{BlockSize: 2048}
	got := s.Pick("/some/file:stat", 4)
	want := CRC32Selector{}.Pick("/some/file:stat", 4)
	if got != want {
		t.Errorf("stat key pick = %d, want CRC32 fallback %d", got, want)
	}
}

func TestBlockModuloSelectorSingleServer(t *testing.T) {
	s := BlockModuloSelector{BlockSize: 2048}
	if got := s.Pick("/f:4096", 1); got != 0 {
		t.Errorf("Pick n=1 = %d", got)
	}
}

func TestBlockModuloSelectorNegativeOffsetClamps(t *testing.T) {
	// A corrupt key with a negative offset must not produce a negative
	// server index (which would panic downstream) or silently rehash.
	s := BlockModuloSelector{BlockSize: 2048}
	for _, key := range []string{"/f:-5", "/f:-65536", "/f:-9223372036854775808"} {
		if got := s.Pick(key, 4); got != 0 {
			t.Errorf("Pick(%q) = %d, want clamp to server 0", key, got)
		}
	}
}

func TestBlockModuloSelectorOverflowingOffsetSaturates(t *testing.T) {
	// An offset past int64 parses to the saturated boundary and maps like
	// a huge offset — previously it fell back to CRC32, so one block of a
	// fuzzed schedule would silently live on a different server.
	s := BlockModuloSelector{BlockSize: 2048}
	const overflow = "/f:92233720368547758080" // 10x MaxInt64
	want := int((int64(9223372036854775807) / 2048) % 4)
	if got := s.Pick(overflow, 4); got != want {
		t.Errorf("Pick(%q) = %d, want saturated mapping %d", overflow, got, want)
	}
	crc := CRC32Selector{}.Pick(overflow, 4)
	if got := s.Pick(overflow, 4); got == crc && want != crc {
		t.Errorf("overflowing offset fell back to CRC32")
	}
}
