package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry_scale4096.* from this run")

// TestRegistryGolden pins what the whole registry prints at scale 4096:
// every table and note byte for byte, and the observed stream (breakdowns,
// telemetry dumps, Chrome-trace exports — too large to commit) by its
// SHA-256. It is `make regdiff` at a size go test can afford: a change
// that is not meant to move the model must leave both files alone.
func TestRegistryGolden(t *testing.T) {
	const golden, digest = "testdata/registry_scale4096.golden", "testdata/registry_scale4096.observed.sha256"
	tables := renderAll(t, Options{Scale: 4096}, false)
	sum := sha256.Sum256(renderAll(t, Options{Scale: 4096, Observe: true}, true))
	observed := hex.EncodeToString(sum[:]) + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, tables, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digest, []byte(observed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffBytes(t, want, tables, "registry at scale 4096")
	wantSum, err := os.ReadFile(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantSum) != observed {
		t.Errorf("observed stream SHA-256:\n got %swant %sif the tables and notes above matched, a breakdown, telemetry dump or trace export moved",
			observed, wantSum)
	}
}
