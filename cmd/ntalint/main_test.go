package main

import (
	"os/exec"
	"testing"
)

// TestSmoke builds and runs the standalone binary over the whole module: the
// tree must be lint-clean, so the run exits 0.  This is the same invocation
// the Makefile's lint target uses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and analyzes the whole module")
	}
	cmd := exec.Command("go", "run", "./cmd/ntalint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ntalint over ./... failed: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Fatalf("ntalint over a clean tree produced output:\n%s", out)
	}
}
