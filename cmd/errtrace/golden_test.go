package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the test binary as errtrace itself when it is started
// under that name (argv[0]), so each golden case runs the command in
// its own process, as a user would.
func TestMain(m *testing.M) {
	if os.Args[0] == "errtrace" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIGolden pins errtrace's complete output for Figure 3's worked
// example and for a seeded random workload.
// Regenerate a golden with
// `go run ./cmd/errtrace <args> > cmd/errtrace/testdata/<name>.golden`
// and read the diff before committing it.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"random-seed-3", []string{"-random", "-seed", "3"}},
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
			cmd.Args[0] = "errtrace"
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("errtrace %q: %v\n%s", c.args, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("errtrace %q differs from testdata/%s.golden:\n%s", c.args, c.golden, got)
			}
		})
	}
}
