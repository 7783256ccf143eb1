package main

import (
	"fmt"

	"imca/internal/blob"
)

// checker counts failed operations and keeps the first few reasons. An
// operation fails when it errors, returns wrong bytes or a wrong size, is
// never completed, or (open loop) exceeds the latency limit.
type checker struct {
	failed  int64
	reasons []string
}

const maxReasons = 8

func (c *checker) failN(n int64, format string, args ...interface{}) {
	if n < 1 {
		n = 1
	}
	c.failed += n
	if len(c.reasons) < maxReasons {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

func (c *checker) fail(format string, args ...interface{}) { c.failN(1, format, args...) }

// checkBlob compares a read's result with the bytes it should hold.
func (c *checker) checkBlob(what string, got, want blob.Blob) {
	switch {
	case got.Len() != want.Len():
		c.fail("%s: read %d bytes, want %d", what, got.Len(), want.Len())
	case !got.Equal(want):
		c.fail("%s: wrong bytes", what)
	}
}

// checkStat compares a stat's result with the file it should describe.
func (c *checker) checkStat(what string, size int64, isDir bool, wantSize int64) {
	if isDir || size != wantSize {
		c.fail("%s: stat says size %d dir %v, want a %d-byte file", what, size, isDir, wantSize)
	}
}

// checkValue compares a daemon get's value with the one its key implies:
// the length from the key's size class and every byte the key's fill.
func (c *checker) checkValue(key int, got []byte) {
	want := valueSize(key)
	if len(got) != want {
		c.fail("key %d: value of %d bytes, want %d", key, len(got), want)
		return
	}
	fill := valueFill(key)
	if got[0] != fill || got[len(got)/2] != fill || got[len(got)-1] != fill {
		c.fail("key %d: wrong fill byte", key)
	}
}

// failedPct is failed_ops_pct: failures as a share of attempts.
func failedPct(failed, attempted int64) float64 {
	if failed > attempted {
		failed = attempted
	}
	return 100 * ratio(float64(failed), float64(attempted))
}
