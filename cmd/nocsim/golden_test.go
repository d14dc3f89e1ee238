package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain runs the test binary as nocsim itself when it is started
// under that name (argv[0]): each golden case runs the command in its
// own process, because the CLI accumulates into the process-global
// obs registry and a second in-process run would print different
// telemetry. Separate processes also let the cases run in parallel.
func TestMain(m *testing.M) {
	if os.Args[0] == "nocsim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs nocsim with args in a child process and returns its
// standard output.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "nocsim"
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("nocsim %q: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

const torusFaults = "stall(router=5,port=1,at=100,dur=400);freeze(router=6,at=300,dur=200)"

// TestCLIGolden pins nocsim's complete output, telemetry lines
// included, on a fault-free mesh and a faulted torus, serial and on a
// two-worker pool, plus a checked run with and without the flight
// recorder, and checks -reference against the same goldens.
// Regenerate a golden with
// `go run ./cmd/nocsim <args> > cmd/nocsim/testdata/<name>.golden`
// and read the diff before committing it.
func TestCLIGolden(t *testing.T) {
	torus := []string{"-torus", "-vcs", "4", "-cycles", "20000", "-faults", torusFaults}
	for _, c := range []struct {
		name, golden string
		args         []string
	}{
		{"default", "default", nil},
		{"default-parallel", "default", []string{"-parallel-mesh", "2"}},
		{"torus-faults", "torus-faults", torus},
		{"torus-faults-parallel", "torus-faults", append(torus[:len(torus):len(torus)], "-parallel-mesh", "2")},
		{"check", "check", []string{"-check"}},
		{"trace-check", "trace-check", []string{"-trace", "-check"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := runCLI(t, c.args...); !bytes.Equal(got, want) {
				t.Errorf("nocsim %q differs from testdata/%s.golden:\n%s", c.args, c.golden, got)
			}
		})
		// The reference simulates the same network: only the lines
		// counting the work performed may differ.
		t.Run(c.name+"-reference", func(t *testing.T) {
			t.Parallel()
			args := append(c.args[:len(c.args):len(c.args)], "-reference")
			if got := withoutWork(runCLI(t, args...)); !bytes.Equal(got, withoutWork(want)) {
				t.Errorf("nocsim %q differs from testdata/%s.golden beyond the work lines:\n%s", args, c.golden, got)
			}
		})
	}
}

// withoutWork drops the output lines that count work performed.
func withoutWork(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("stepping:")) && !bytes.HasPrefix(line, []byte("arbitration:")) &&
			!bytes.HasPrefix(line, []byte("layout:")) {
			kept = append(kept, line)
		}
	}
	return bytes.Join(kept, nil)
}

// TestRefusesUnappliedFaults pins the network family's fault rule: a
// directive the network kernel does not apply — a service-side slow
// fault, or a stall naming neither router nor port, which only the
// single-server engine applies — fails the run, naming the directive
// and the driver family.
func TestRefusesUnappliedFaults(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"slow(p=0.5,ms=20)", "stall(at=100,dur=1500)"} {
		cmd := exec.Command(exe, "-cycles", "2000", "-faults", spec)
		cmd.Args[0] = "nocsim"
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("nocsim accepted %s, which it cannot apply", spec)
			continue
		}
		if msg := stderr.String(); !strings.Contains(msg, strconv.Quote(spec)) || !strings.Contains(msg, "network kernel") {
			t.Errorf("refusal of %s does not name the directive and the driver: %q", spec, msg)
		}
	}
}

// TestOutOfRangeFlagsRefused: an injection rate outside [0, 1], packet
// lengths no uniform draw can produce, a negative cycle count, a trace
// sampling rate below 1, a radix below 2, a tile edge outside [0, k],
// an odd VC count on a torus, or a negative -parallel-mesh must stop
// nocsim with exit status 1 and a message naming the flag, not panic
// or run something else.
func TestOutOfRangeFlagsRefused(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-rate", []string{"-rate", "2"}},
		{"-rate", []string{"-rate", "-1"}},
		{"-minlen", []string{"-minlen", "0"}},
		{"-maxlen", []string{"-minlen", "5", "-maxlen", "2"}},
		{"-cycles", []string{"-cycles", "-5"}},
		{"-trace-sample", []string{"-trace", "-trace-sample", "0"}},
		{"-vcs", []string{"-vcs", "0"}},
		{"-vcs", []string{"-vcs", "65"}},
		{"-buf", []string{"-buf", "0"}},
		{"-buf", []string{"-buf", "-1"}},
		{"-k", []string{"-k", "1"}},
		{"-tile", []string{"-tile", "99"}},
		{"-tile", []string{"-tile", "-1"}},
		{"-vcs", []string{"-torus", "-vcs", "1"}},
		{"-vcs", []string{"-torus", "-vcs", "3"}},
		{"-parallel-mesh", []string{"-parallel-mesh", "-1"}},
	} {
		cmd := exec.Command(exe, c.args...)
		cmd.Args[0] = "nocsim"
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		_, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("nocsim %q: %v, stderr %q; want exit status 1 naming %s", c.args, err, stderr.String(), c.flag)
		}
	}
}
