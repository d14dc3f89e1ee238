//go:build !race

// The race detector would stretch this paper-scale run to minutes
// without checking anything the race-enabled suites do not; the CI
// golden job runs it without -race.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestResultsGolden regenerates every artifact at paper scale and
// byte-compares it with the committed results/*.txt (run manifests
// are not artifacts). It takes a few seconds per core, so -short
// skips it.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale reproduction; run without -short")
	}
	out := t.TempDir()
	if err := run(out, false, 1, runtime.GOMAXPROCS(0), false, false); err != nil {
		t.Fatal(err)
	}
	want, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(out, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("reproduce wrote %d artifacts, results/ holds %d", len(got), len(want))
	}
	for _, w := range want {
		name := filepath.Base(w)
		a, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the committed artifact; regenerate it with go run ./cmd/reproduce -manifest=false and check the diff", name)
		}
	}
}
