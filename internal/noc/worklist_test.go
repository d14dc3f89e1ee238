package noc

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestWorklistMatchesFullScanDAMQ pins the work-list oracle on the
// configuration its quiescence analysis is most fragile for: DAMQ
// shared-buffer inputs, whose stop/go gates can change answers without
// any credit event, so gated outputs must keep polling instead of
// quiescing. The fast run must reproduce the reference in every
// simulation artifact (telemetry legitimately differs:
// noc.cells_visited counts the scan work the work-list saves).
func TestWorklistMatchesFullScanDAMQ(t *testing.T) {
	ref, _ := assertMatchesReference(t, "worklist-damq", scenario{
		cfg:    Config{K: 4, VCs: 2, BufFlits: 2, SharedBufFlits: 16, SharedBufCap: 12, NewArb: newERR},
		inject: 2500,
	})
	if ref.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d packets in flight", ref.inFlight)
	}
}

// TestWorklistMatchesFullScanTorusFaults is the adversarial work-list
// oracle: a torus under stalls, drops, corruption, and a freeze. Every
// fault pathway mutates allocation state out from under the pending
// masks (a stalled link polls, a dropped tail wedges the downstream
// worm forever, a frozen router skips Compute entirely), and each must
// leave the work-list agreeing with the full scan flit for flit.
func TestWorklistMatchesFullScanTorusFaults(t *testing.T) {
	assertMatchesReference(t, "worklist-torus-faults",
		scenario{cfg: meshCfg(true, 0), spec: torusFaults, inject: 2500})
}

// TestRunTimeSkipMatchesStepped pins the time-skip contract: jumping
// the cycle counter over provably idle gaps between three bursts must
// be cycle-stamp identical to literally stepping them — every
// delivered flit lands at the same (node, vc, cycle), every latency
// sample is the same float, the final cycle counter and the noc.cycles
// total agree, and the fast run must actually have skipped something.
func TestRunTimeSkipMatchesStepped(t *testing.T) {
	ref, fast := assertMatchesReference(t, "timeskip", scenario{
		cfg:   meshCfg(false, 0),
		sends: burstSends(16, 21, []int64{0, 5000, 10000}, 12),
		run:   12_000,
		drain: 5_000,
	})
	if ref.inFlight != 0 {
		t.Fatal("network did not drain")
	}
	if fast.skipped == 0 {
		t.Fatal("time skipping never engaged on a bursty scenario with 5000-cycle gaps")
	}
}

// TestFaultFrozenRouterWorklist pins the interaction the work-lists
// are most easily broken by: a frozen router skips Compute, so its
// pending bits go stale while neighbours keep pushing flits at it.
// When the freeze lifts, those cells must still be on the work-list
// (events must register on frozen routers, not be dropped), or the
// network wedges with traffic no scan will ever revisit.
func TestFaultFrozenRouterWorklist(t *testing.T) {
	for _, reference := range []bool{false, true} {
		m, err := NewMesh(meshCfg(false, 0))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m.RegisterObs(reg)
		m.SetReference(reference)
		if _, _, err := m.Protect("freeze(router=5,at=50,dur=600)", 3, false); err != nil {
			t.Fatal(err)
		}
		// Route worms straight through the frozen router (node 5 =
		// (1,1)): row 1 traffic crossing it while it is down.
		src := rng.New(9)
		for c := 0; c < 400; c++ {
			if c%10 == 0 {
				m.Send(m.NodeID(0, 1), m.NodeID(3, 1), src.IntRange(1, 6))
			}
			m.Step()
		}
		if !m.Drain(5_000) {
			t.Fatalf("reference=%v: traffic stranded behind a thawed router; %d in flight (cells dropped from the work-list while frozen?)",
				reference, m.InFlight())
		}
		// Everything delivered: the active set must be empty again, or
		// idle routers poll forever and time skipping never re-engages.
		if got := reg.Gauge("noc.active_routers").Value(); got != 0 {
			t.Errorf("reference=%v: %d routers still active after drain", reference, got)
		}
	}
}

// TestMeshStepAllocsZero gates the zero-allocation steady state at the
// mesh level: once warm, a saturated Mesh.Step cycle — forwarding,
// delivery, credit return, latency accounting, active-set maintenance
// — must not allocate, stepped serially or on a 2-worker pool (the
// pool hand-off and the claimed tiles included). Telemetry is wired,
// since the production path always runs with it.
func TestMeshStepAllocsZero(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			m, err := NewMesh(Config{K: 8, VCs: 2, BufFlits: 8, NewArb: newERR})
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 {
				p := exec.NewPool(workers)
				defer p.Close()
				m.SetPool(p)
			}
			m.RegisterObs(obs.NewRegistry())
			inj := NewInjector(m, 0.30, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(5))
			inj.MaxPending = 4
			saturate := func() {
				for c := 0; c < 2000; c++ {
					inj.Step()
					m.Step()
				}
			}
			// Saturate and drain once first: the per-tile effect
			// buffers grow by append to the high water of this
			// traffic, the drain included, and that one-off growth is
			// not a per-cycle allocation.
			saturate()
			if !m.Drain(10_000) {
				t.Fatal("warm phase did not drain")
			}
			saturate()
			if m.InFlight() == 0 {
				t.Fatal("warm phase did not saturate the mesh")
			}
			// The ~600 packets in flight drain in ~200 steps with no
			// injector in the loop. AllocsPerRun(1, f) runs f once to
			// warm up and once to measure, and returns the measured
			// run's total rather than a truncated per-step average, so
			// even one allocation in the window counts. Both runs stay
			// well inside the drain.
			const steps = 60
			got := testing.AllocsPerRun(1, func() {
				for i := 0; i < steps; i++ {
					m.Step()
				}
			})
			if m.InFlight() == 0 {
				t.Fatal("the mesh drained inside the measured window")
			}
			if got != 0 {
				t.Errorf("Mesh.Step allocates %.0f times in %d steady-state cycles, want 0", got, steps)
			}
		})
	}
}

// FuzzMeshWorklistOracle feeds arbitrary fault-free send scripts, with
// gaps counted in single cycles, to the fast mesh and the reference
// and requires identical artifacts — a coverage-guided search for a
// traffic shape whose work-list quiescence drops an event. Every input
// byte is script: it is FuzzMeshEventOracle's check under the header
// "no faults, auto tile, single-cycle gaps". Run with
// `go test -fuzz FuzzMeshWorklistOracle ./internal/noc`.
func FuzzMeshWorklistOracle(f *testing.F) {
	f.Add([]byte{0x01, 0x53, 0x22, 0x90, 0x07})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		checkMeshOracle(t, []byte{0, 0, 0, 0, 0, 0, 4}, script)
	})
}
