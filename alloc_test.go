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

// TestEngineCycleAllocsZero runs the 8-flow bench configuration for
// one measured run of 100,000 cycles, and Figure 6's shape (fig6Engine
// at 10 flows) in runs of 4096 cycles, each holding ~800 departures,
// as many partial re-polls of the source, and one ServiceLog
// checkpoint. AllocsPerRun truncates its average over runs, so a run
// shorter than an allocation's period would hide it; over one run it
// returns the total. The first half warms up for a million cycles
// (~30,000 departures) because the Go runtime builds each call
// site's interface type-assertion cache (traffic.Multi asserts its
// children's Quieter side) at a random slow-path call, about one in
// 1024, and that one-off allocation must land before the window.
func TestEngineCycleAllocsZero(t *testing.T) {
	e, err := engine.NewEngine(benchERRConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1_000_000)
	if got := testing.AllocsPerRun(1, func() { e.Run(100_000) }); got != 0 {
		t.Errorf("engine allocates %.0f times in 100,000 steady-state cycles, want 0", got)
	}

	const warm, runs, cycles = 4096, 50, 4096
	e = fig6Engine(t, 10, warm+(runs+1)*cycles)
	e.Run(warm)
	if got := testing.AllocsPerRun(runs, func() { e.Run(cycles) }); got != 0 {
		t.Errorf("fig6 engine allocates %.1f times per %d cycles in steady state, want 0", got, cycles)
	}
}
