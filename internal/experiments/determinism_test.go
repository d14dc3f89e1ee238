package experiments

import (
	"fmt"
	"testing"
)

// TestRunsAreDeterministic pins the reproducibility guarantee the
// paper's multi-user motivation asks for ("repeatable performance
// necessary for benchmark applications"): identical parameters and
// seed must render bit-identical artifacts, run to run.
func TestRunsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Config
	}{
		{"table1", Config{Seed: 1, Cycles: 100_000}},
		{"fig6", Config{Seed: 1, Cycles: 50_000, Intervals: 300}},
	} {
		if render(t, tc.name, tc.c) != render(t, tc.name, tc.c) {
			t.Fatalf("two identical %s runs rendered differently", tc.name)
		}
	}

	// And a different seed must actually change the outcome (the seed
	// is not being ignored).
	if render(t, "fig4a", Config{Seed: 1, Cycles: 50_000}) == render(t, "fig4a", Config{Seed: 999, Cycles: 50_000}) {
		t.Error("changing the seed did not change the workload")
	}
}

// TestDeterminismUnderConcurrency runs several seeded experiments as
// parallel subtests, each rendering the same configuration twice at
// different worker counts. Under -race this doubles as a data-race
// sweep of the worker pool; functionally it pins that concurrent
// experiment runs cannot contaminate each other's results (every
// simulation owns its RNG state — nothing is package-global).
func TestDeterminismUnderConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, tc := range []struct {
			name string
			c    Config
		}{
			{"fig6", Config{Seed: 1, Cycles: 30_000, Intervals: 150}},
			{"gap", Config{Seed: 1, Cycles: 30_000}},
		} {
			tc := tc
			tc.c.Workers = workers
			t.Run(fmt.Sprintf("%s-workers-%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				if render(t, tc.name, tc.c) != render(t, tc.name, tc.c) {
					t.Errorf("%s with Workers=%d rendered differently run to run", tc.name, tc.c.Workers)
				}
			})
		}
	}
}
