package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain runs the test binary as errsim itself when it is started
// under that name (argv[0]): each case runs the command in its own
// process, because the CLI accumulates into the process-global obs
// registry and exits non-zero on failure. Separate processes also let
// the cases run in parallel.
func TestMain(m *testing.M) {
	if os.Args[0] == "errsim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs errsim with args in a child process and returns its
// standard output, standard error and exit error.
func runCLI(t *testing.T, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = "errsim"
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	return out, errBuf.Bytes(), err
}

// TestCLIGolden pins errsim's output for every experiment at a short
// length, plus one faulted, checked run of the engine, of the NoC and
// of the parking-lot chain, and one -json document. Every case runs serially and on a
// two-worker pool against the same golden. Regenerate a golden with
// `go run ./cmd/errsim <args> > cmd/errsim/testdata/<name>.golden`
// and read the diff before committing it.
func TestCLIGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"table1", []string{"-exp", "table1", "-cycles", "20000"}},
		{"fig4", []string{"-exp", "fig4", "-cycles", "20000"}},
		{"fig5", []string{"-exp", "fig5", "-cycles", "2000", "-repeats", "1"}},
		{"fig6", []string{"-exp", "fig6", "-cycles", "20000", "-intervals", "50"}},
		{"fig6ext", []string{"-exp", "fig6ext", "-cycles", "20000", "-intervals", "50"}},
		{"occupancy", []string{"-exp", "occupancy", "-cycles", "20000"}},
		{"screset", []string{"-exp", "screset", "-cycles", "20000"}},
		{"weighted", []string{"-exp", "weighted", "-cycles", "20000"}},
		{"gap", []string{"-exp", "gap", "-cycles", "20000"}},
		{"lr", []string{"-exp", "lr", "-cycles", "20000"}},
		{"parkinglot", []string{"-exp", "parkinglot", "-cycles", "4000"}},
		{"nocsweep", []string{"-exp", "nocsweep", "-cycles", "2000"}},
		{"nocsweep-torus", []string{"-exp", "nocsweep-torus", "-cycles", "2000"}},
		{"bounds", []string{"-exp", "bounds", "-cycles", "5000"}},
		{"fig4-stall-check", []string{"-exp", "fig4", "-cycles", "20000",
			"-faults", "stall(flow=2,at=5000,dur=10000)", "-check"}},
		{"nocsweep-freeze-check", []string{"-exp", "nocsweep", "-cycles", "2000",
			"-faults", "freeze(router=5,at=500,dur=300)", "-check"}},
		{"parkinglot-freeze-check", []string{"-exp", "parkinglot", "-cycles", "4000",
			"-faults", "freeze(router=2,at=500,dur=300)", "-check"}},
		{"weighted-json", []string{"-exp", "weighted", "-cycles", "20000", "-json"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"1", "2"} {
			c, args := c, append(c.args[:len(c.args):len(c.args)], "-parallel", w)
			t.Run(c.name+"-parallel-"+w, func(t *testing.T) {
				t.Parallel()
				got, stderr, err := runCLI(t, args...)
				if err != nil {
					t.Fatalf("errsim %q: %v\n%s", args, err, stderr)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("errsim %q differs from testdata/%s.golden:\n%s", args, c.name, got)
				}
			})
		}
	}
}

// everyName lists the -exp names errsim has always accepted.
var everyName = []string{
	"table1", "fig4", "fig4a", "fig4b", "fig4c", "fig4d",
	"fig5", "fig5a", "fig5b", "fig6", "fig6ext", "occupancy", "screset",
	"weighted", "gap", "lr", "parkinglot", "nocsweep", "nocsweep-torus", "bounds", "scale",
}

// TestEveryExperimentRenders runs every -exp name at a minimal length
// and checks that it exits cleanly with some output, and that the
// experiment table holds exactly these names. scale is not run: its
// default grid builds a million-router torus whatever -cycles says
// (CI's scale-smoke job runs it).
func TestEveryExperimentRenders(t *testing.T) {
	if got := experiments.Names(); !reflect.DeepEqual(got, everyName) {
		t.Errorf("experiment table names = %q, want %q", got, everyName)
	}
	for _, name := range everyName {
		if name == "scale" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			args := []string{"-exp", name, "-cycles", "1000", "-intervals", "10", "-repeats", "1", "-parallel", "2"}
			out, stderr, err := runCLI(t, args...)
			if err != nil {
				t.Fatalf("errsim %q: %v\n%s", args, err, stderr)
			}
			if len(out) == 0 {
				t.Fatalf("errsim %q printed nothing", args)
			}
		})
	}
}

// TestTraceOutRefused pins the flight recorder's reach: -trace-out
// writes engine spans for the single-server experiments, and every
// other experiment refuses it by name instead of writing an empty
// trace.
func TestTraceOutRefused(t *testing.T) {
	refused := map[string]bool{"occupancy": true, "screset": true, "gap": true, "lr": true,
		"parkinglot": true, "nocsweep": true, "nocsweep-torus": true, "bounds": true, "scale": true}
	for _, name := range everyName {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "trace.json")
			args := []string{"-exp", name, "-cycles", "1000", "-intervals", "10", "-repeats", "1",
				"-trace-out", path, "-trace-sample", "1"}
			if name == "scale" {
				// Own no point of the grid, so that a missed refusal
				// cannot build the million-router torus.
				args = append(args, "-shard", "99", "-of", "100")
			}
			_, stderr, err := runCLI(t, args...)
			if !refused[name] {
				if err != nil {
					t.Fatalf("errsim %q: %v\n%s", args, err, stderr)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var spans []json.RawMessage
				if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
					t.Fatalf("errsim %q wrote %d spans (err %v), want some", args, len(spans), err)
				}
				return
			}
			if err == nil {
				t.Fatalf("errsim %q exited 0, want a refusal", args)
			}
			if want := `experiment "` + name + `" does not support -trace-out`; !strings.Contains(string(stderr), want) {
				t.Errorf("errsim %q stderr = %q, want it to contain %q", args, stderr, want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("errsim %q left a trace file behind (stat err %v)", args, err)
			}
		})
	}
	// A sampling rate below 1 traces nothing; it is refused rather
	// than written as an empty trace.
	t.Run("trace-sample-0", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "trace.json")
		args := []string{"-exp", "fig6", "-cycles", "2000", "-intervals", "10",
			"-trace-out", path, "-trace-sample", "0"}
		_, stderr, err := runCLI(t, args...)
		refusedWith(t, args, stderr, err, "-trace-sample")
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("errsim %q left a trace file behind (stat err %v)", args, err)
		}
	})
}

// refusedWith fails t unless a child errsim run exited with status 1
// and named flag on standard error.
func refusedWith(t *testing.T, args []string, stderr []byte, err error, flag string) {
	t.Helper()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(stderr), flag) {
		t.Errorf("errsim %q: %v, stderr %q; want exit status 1 naming %s", args, err, stderr, flag)
	}
}

// TestOutOfRangeFlagsRefused: a negative run length or averaging
// count, or a shard index outside [0, -of), must stop errsim with exit
// status 1 and a message naming the flag, not panic or silently run
// the experiment's defaults.
func TestOutOfRangeFlagsRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-cycles", []string{"-exp", "fig6", "-cycles", "-5"}},
		{"-intervals", []string{"-exp", "fig6", "-cycles", "2000", "-intervals", "-3"}},
		{"-repeats", []string{"-exp", "fig5", "-cycles", "2000", "-repeats", "-1"}},
		{"-shard", []string{"-exp", "scale", "-shard", "5", "-of", "2", "-checkpoint", ckpt}},
		{"-shard", []string{"-exp", "scale", "-shard", "-1", "-of", "2", "-checkpoint", ckpt}},
	} {
		_, stderr, err := runCLI(t, c.args...)
		refusedWith(t, c.args, stderr, err, c.flag)
	}
}

// TestShardMergeAcrossWorkerCounts merges two scale shards written
// under different -parallel values: the worker count is not part of
// the grid signature. Both shards own no job of the 13-point grid, so
// nothing is simulated.
func TestShardMergeAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, args := range [][]string{
		{"-shard", "98", "-of", "100", "-checkpoint", a, "-parallel", "1"},
		{"-shard", "99", "-of", "100", "-checkpoint", b, "-parallel", "2"},
		{"-merge", a + "," + b, "-checkpoint", filepath.Join(dir, "merged.jsonl")},
	} {
		args = append([]string{"-exp", "scale", "-cycles", "24", "-quiet"}, args...)
		if _, stderr, err := runCLI(t, args...); err != nil {
			t.Fatalf("errsim %q: %v\n%s", args, err, stderr)
		}
	}
}
