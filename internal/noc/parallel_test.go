package noc

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestMeshStepParallelMatchesSerial pins the tentpole contract: the
// quiescent serial path and pool-sharded stepping at 1/2/8 workers
// (and alternating pool sizes) all reproduce the reference
// byte-identically — every ejected flit (node, vc, kind, cycle), every
// counter, and the exact Welford latency accumulation, whose float
// sums would expose any reordering of commit effects.
func TestMeshStepParallelMatchesSerial(t *testing.T) {
	ref, _ := assertMatchesReference(t, "mesh", scenario{cfg: meshCfg(false, 0), inject: 2500}, poolVariants...)
	if ref.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d packets in flight", ref.inFlight)
	}
}

// TestMeshTileConfigsMatchAcrossWorkers sweeps explicit commit tile
// edges — 1x1 (every effect is a boundary effect), the 2x2 default,
// 3x3 (uneven edge tiles on K=4), and 4x4 (one tile, everything
// interior) — and requires each tiling to reproduce the reference at
// every worker count. The tile edge is part of the simulated
// configuration, so identity is pinned per tiling, at any parallelism.
func TestMeshTileConfigsMatchAcrossWorkers(t *testing.T) {
	for _, tile := range []int{1, 2, 3, 4} {
		ref, _ := assertMatchesReference(t, fmt.Sprintf("tile=%d", tile),
			scenario{cfg: meshCfg(false, tile), inject: 2500}, poolVariants...)
		if ref.inFlight != 0 {
			t.Fatalf("tile=%d: scenario degenerate: %d packets in flight", tile, ref.inFlight)
		}
	}
}

// torusFaults is the adversarial fault mix of the 4x4 torus scenarios:
// link stalls, flit drops, corruption, and a router freeze.
const torusFaults = "stall(port=1,at=100,dur=200);drop(router=5,port=1,p=0.05);corrupt(router=10,p=0.05);freeze(router=6,at=300,dur=400)"

// TestMeshStepParallelTorusFaults is the adversarial variant: a torus
// (dateline VC switching) under link stalls, flit drops, corruption,
// and a router freeze. Faults exercise the quiescence edge cases —
// frozen routers must keep accruing occupancy while active, dropped
// tails wedge downstream worms that must stay registered forever —
// and the per-(router,port) fault rng streams must land identically
// regardless of compute scheduling.
func TestMeshStepParallelTorusFaults(t *testing.T) {
	assertMatchesReference(t, "torus-faults",
		scenario{cfg: meshCfg(true, 0), spec: torusFaults, inject: 2500}, poolVariants...)
}

// TestMeshTileDeterminism64TorusFaults is the at-scale adversarial
// pin for tiled stepping: a 64x64 torus (4096 routers, 64 commit
// tiles at the 8x8 default) under link stalls and frozen routers,
// driven by bursty scheduled traffic through the Run/Drain event core.
// The event core, serial and at 1, 2, 4, and 8 workers, must reproduce
// the reference byte-identically — deliveries, latency floats, and
// final in-flight state, including whatever the faults wedge.
func TestMeshTileDeterminism64TorusFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("64x64 adversarial sweep skipped in -short mode")
	}
	assertMatchesReference(t, "64x64-torus-faults", scenario{
		cfg: Config{K: 64, VCs: 4, BufFlits: 2, Torus: true, NewArb: newERR},
		spec: "stall(port=1,at=100,dur=400);stall(router=1300,port=3,at=600,dur=300);" +
			"freeze(router=2080,at=200,dur=500);freeze(router=70,at=900,dur=200)",
		sends: burstSends(64*64, 21, []int64{0, 1500}, 120),
		run:   3_000,
		drain: 20_000,
	}, []int{1}, []int{2}, []int{4}, []int{8})
}

// TestQuiescenceSkipsIdleRouters pins the point of the active set: a
// single worm crossing a big mesh must cost a handful of router
// computes per cycle, not K².
func TestQuiescenceSkipsIdleRouters(t *testing.T) {
	m, err := NewMesh(Config{K: 8, VCs: 2, BufFlits: 4, NewArb: newERR})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	m.Send(0, m.Nodes()-1, 3)
	if !m.Drain(2000) {
		t.Fatal("packet not delivered")
	}
	cycles := reg.Counter("noc.cycles").Value()
	computes := reg.Counter("noc.router_computes").Value()
	if cycles == 0 {
		t.Fatal("no cycles recorded")
	}
	// A 3-flit worm occupies a bounded window of the 14-hop path; the
	// idle ~60 routers must not be computed.
	if computes > cycles*8 {
		t.Errorf("router computes %d over %d cycles: active set not pruning (full iteration would be %d)",
			computes, cycles, cycles*int64(m.Nodes()))
	}
	if hw := reg.Gauge("noc.active_routers_high_water").Value(); hw == 0 || hw > 10 {
		t.Errorf("active-set high water %d, want 1..10", hw)
	}
	if got := reg.Gauge("noc.active_routers").Value(); got != 0 {
		t.Errorf("active routers after drain = %d, want 0", got)
	}
}
