package experiments

import (
	"io"
	"strings"
	"testing"
)

// renderString renders any result to a string, failing the test on
// error.
func renderString(t *testing.T, r interface{ Render(io.Writer) error }) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// render runs the -exp name through the experiment table under c and
// renders the result.
func render(t *testing.T, name string, c Config) string {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	res, err := e.Run(name, c)
	if err != nil {
		t.Fatal(err)
	}
	return renderString(t, res)
}

// TestParallelMatchesSerial pins the worker-pool contract: every
// grid runner must render byte-identical artifacts with Workers=1
// (the serial path) and Workers=4. Each job owns its seed derivation,
// so scheduling order cannot leak into results.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Config
	}{
		{"table1", Config{Cycles: 60_000}},
		{"fig4", Config{Cycles: 60_000}},
		{"fig5", Config{Cycles: 2_000, Repeats: 2}},
		{"fig6", Config{Cycles: 40_000, Intervals: 200}},
		{"fig6ext", Config{Cycles: 40_000, Intervals: 200}},
		{"weighted", Config{Cycles: 60_000}},
		{"gap", Config{Cycles: 60_000}},
		{"parkinglot", Config{Cycles: 40_000}},
		{"nocsweep", Config{Cycles: 4_000}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.c.Seed = 1
			serial, parallel := tc.c, tc.c
			serial.Workers, parallel.Workers = 1, 4
			if a, b := render(t, tc.name, serial), render(t, tc.name, parallel); a != b {
				t.Errorf("Workers=1 and Workers=4 rendered differently:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
			}
		})
	}
}
