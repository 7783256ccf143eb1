package gluster

import (
	"math"
	"testing"
)

// TestCheckRange pins the front door's rule at its edges: the last byte a
// file can hold is accepted, one past it and anything negative or
// overflowing is not.
func TestCheckRange(t *testing.T) {
	for _, c := range []struct {
		off, n int64
		ok     bool
	}{
		{0, 0, true},
		{0, MaxFileSize, true},
		{MaxFileSize - 10, 10, true},
		{MaxFileSize, 0, true},
		{MaxFileSize - 9, 10, false},
		{MaxFileSize + 1, 0, false},
		{-1, 10, false},
		{0, -1, false},
		{math.MaxInt64, 10, false},
		{10, math.MaxInt64, false},
		{math.MinInt64, math.MinInt64, false},
	} {
		if err := CheckRange(c.off, c.n); (err == nil) != c.ok {
			t.Errorf("CheckRange(%d, %d) = %v, want ok %v", c.off, c.n, err, c.ok)
		}
	}
}
