package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as switchsim itself when it is started
// under that name (argv[0]): each golden case runs the command in its
// own process, because the CLI accumulates into the process-global
// obs registry and a second in-process run would print different
// telemetry. Separate processes also let the cases run in parallel.
func TestMain(m *testing.M) {
	if os.Args[0] == "switchsim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs switchsim with args in a child process and returns its
// standard output.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "switchsim"
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("switchsim %q: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestCLIGolden pins switchsim's complete output: the default run, a
// run whose contended output is stalled for 50k cycles, the full-scan
// reference, a checked run through a switch freeze, a half-rate drain
// under PBRR, and malformed injected packets. Regenerate a golden with
// `go run ./cmd/switchsim <args> > cmd/switchsim/testdata/<name>.golden`
// and read the diff before committing it.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"stall", []string{"-faults", "stall(port=0,at=1000,dur=50000)"}},
		{"reference", []string{"-reference"}},
		{"check-freeze", []string{"-check", "-faults", "freeze(router=0,at=1000,dur=3000)"}},
		{"drain-pbrr", []string{"-drain", "0.5", "-arb", "pbrr"}},
		{"malformed", []string{"-faults", "malformed(kind=duphead,p=0.001)"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runCLI(t, c.args...); !bytes.Equal(got, want) {
				t.Errorf("switchsim %q differs from testdata/%s.golden:\n%s", c.args, c.golden, got)
			}
		})
	}
}

// TestVCsCarryTraffic pins that -vcs spreads each input's packets
// across the VCs, as every network's injection front end does: with two
// VCs the delivered flits differ from the one-VC run, not only the
// arbitration line's cell count.
func TestVCsCarryTraffic(t *testing.T) {
	withoutArbitration := func(out []byte) []byte {
		var kept [][]byte
		for _, line := range bytes.SplitAfter(out, []byte("\n")) {
			if !bytes.HasPrefix(line, []byte("arbitration:")) {
				kept = append(kept, line)
			}
		}
		return bytes.Join(kept, nil)
	}
	one := withoutArbitration(runCLI(t, "-cycles", "20000", "-vcs", "1"))
	two := withoutArbitration(runCLI(t, "-cycles", "20000", "-vcs", "2"))
	if bytes.Equal(one, two) {
		t.Fatalf("-vcs 2 delivers exactly what -vcs 1 does: every packet used VC 0\n%s", two)
	}
}

// TestOutOfRangeInputRefused: a -bigin that names no input, packet
// lengths no uniform draw can produce, a negative cycle count, a drain
// probability outside [0, 1], or a trace sampling rate below 1 must
// stop switchsim with exit status 1 and a message naming the flag, not
// panic or run something else.
func TestOutOfRangeInputRefused(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-bigin", []string{"-bigin", "9"}},
		{"-bigin", []string{"-bigin", "0"}},
		{"-minlen", []string{"-minlen", "0"}},
		{"-maxlen", []string{"-minlen", "9", "-maxlen", "3"}},
		{"-cycles", []string{"-cycles", "-5"}},
		{"-drain", []string{"-drain", "1.5"}},
		{"-drain", []string{"-drain", "-0.5"}},
		{"-trace-sample", []string{"-trace", "-trace-sample", "0"}},
		{"-inputs", []string{"-inputs", "0"}},
		{"-vcs", []string{"-vcs", "0"}},
		{"-buf", []string{"-buf", "0"}},
	} {
		cmd := exec.Command(exe, c.args...)
		cmd.Args[0] = "switchsim"
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		_, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("switchsim %q: %v, stderr %q; want exit status 1 naming %s", c.args, err, stderr.String(), c.flag)
		}
	}
}
