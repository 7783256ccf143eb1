package core

import (
	"os"
	"testing"

	"imca/internal/fabric"
)

// TestMain turns the fabric's frame-poison mode on for the whole package:
// every test is a use-after-release detector for the pooled frames.
func TestMain(m *testing.M) {
	fabric.SetFramePoison(true)
	os.Exit(m.Run())
}
