// Package allocfree is an imcalint fixture: heap allocations reachable
// from annotated hot-path roots, which must be flagged, plus one
// suppressed site and two malformed annotations.
package allocfree

// sink is an interface parameter so boxing at the call boundary fires.
func sink(v interface{}) { _ = v }

// escape returns an address-taken composite literal, reached through a
// call so the cross-function walk is exercised.
func escape() *point { return &point{x: 1} }

type point struct{ x int }

// Root reaches every allocation flavour the check knows.
//
//imcalint:hotpath fixture: every allocation below must be flagged
func Root(xs []int, s, t string) []int {
	xs = append(xs, 1)
	m := map[string]int{"a": 1}
	_ = m
	f := func() {}
	f()
	_ = s + t
	_ = []byte(s)
	sink(42)
	_ = escape()
	_ = make([]int, 4)
	_ = keyLen(s) // a type parameter is not an interface: never flagged
	panic(s + t + "cold diagnostic: never flagged")
}

// Suppressed holds the one allowed allocation on a hot path.
//
//imcalint:hotpath fixture: suppressed case
func Suppressed() {
	_ = make([]int, 4) //imcalint:allow allocfree fixture: deliberate allocation, pinned by the suppress test
}

// NoteMissing has an annotation without a note, which is itself a
// finding.
//
//imcalint:hotpath
func NoteMissing() {}

//imcalint:hotpath fixture: a stray annotation binds to nothing
var stray = 0

// keyLen is generic: its instantiation for a string passes the string as is.
func keyLen[K string | []byte](k K) int { return len(k) }
