package repro

// Steady-state allocation gates for the simulation hot paths (see
// DESIGN.md §9): after warm-up, a cycle of the single-server engine
// and of the wormhole substrates must not allocate. The same
// quantities are recorded as allocs/op in BENCH_hotpath.json and
// checked in CI, but these tests fail locally and under -race without
// any benchmark tooling.

import (
	"testing"

	"repro/internal/engine"
)

// TestEngineCycleAllocsZero steps the 8-flow bench configuration one
// cycle at a time, and Figure 6's shape (fig6Engine at 10 flows) in
// runs of 1000 cycles, each holding ~200 departures and as many
// partial re-polls of the source.
func TestEngineCycleAllocsZero(t *testing.T) {
	e, err := engine.NewEngine(benchERRConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4096)
	if got := testing.AllocsPerRun(200, func() { e.Run(1) }); got != 0 {
		t.Errorf("engine cycle allocates %.1f times in steady state, want 0", got)
	}

	const warm, runs, cycles = 4096, 100, 1000
	e = fig6Engine(t, 10, warm+(runs+1)*cycles)
	e.Run(warm)
	if got := testing.AllocsPerRun(runs, func() { e.Run(cycles) }); got != 0 {
		t.Errorf("fig6 engine allocates %.1f times per %d cycles in steady state, want 0", got, cycles)
	}
}
