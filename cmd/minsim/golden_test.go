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

// TestMain runs the test binary as minsim itself when it is started
// under that name (argv[0]), so each golden case runs the command in
// its own process, as a user would.
func TestMain(m *testing.M) {
	if os.Args[0] == "minsim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIGolden pins minsim's complete output under ERR and PBRR.
// Regenerate a golden with
// `go run ./cmd/minsim <args> > cmd/minsim/testdata/<name>.golden`
// and read the diff before committing it.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"pbrr", []string{"-arb", "pbrr"}},
	} {
		c := c
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, c.args...)
			cmd.Args[0] = "minsim"
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("minsim %q: %v\n%s", c.args, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("minsim %q differs from testdata/%s.golden:\n%s", c.args, c.golden, got)
			}
		})
	}
}

// TestOutOfRangeTerminalsRefused: a terminal flag that names no
// terminal, or a negative cycle count, must stop minsim with exit
// status 1 and a message naming the flag, not panic or run without the
// traffic it asks for.
func TestOutOfRangeTerminalsRefused(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-hotspot", "8"}, {"-hotspot", "-1"}, {"-longin", "8"}, {"-cycles", "-5"},
		{"-vcs", "0"}, {"-buf", "0"},
	} {
		cmd := exec.Command(exe, args...)
		cmd.Args[0] = "minsim"
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		_, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("minsim %q: %v, stderr %q; want exit status 1 naming %s", args, err, stderr.String(), args[0])
		}
	}
}
