package core

import (
	"os"
	"testing"

	"imca/internal/sim"
)

// TestMain turns poison mode on for the whole package: every test is a
// use-after-release detector for the pooled frames.
func TestMain(m *testing.M) {
	sim.SetPoison(true)
	os.Exit(m.Run())
}
