package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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
