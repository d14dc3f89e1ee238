package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
)

func testTorus(t *testing.T, k int) *Mesh {
	t.Helper()
	m, err := NewMesh(Config{
		K: k, VCs: 2, BufFlits: 8, Torus: true,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTorusValidation(t *testing.T) {
	for _, vcs := range []int{1, 3} {
		if _, err := NewMesh(Config{
			K: 3, VCs: vcs, BufFlits: 4, Torus: true,
			NewArb: func() sched.Scheduler { return core.New() },
		}); err == nil {
			t.Errorf("torus with %d VCs accepted", vcs)
		}
	}
}

func TestTorusMinimalRouting(t *testing.T) {
	m := testTorus(t, 4)
	at := m.NodeID(0, 0)
	cases := []struct {
		dst  int
		want int
	}{
		{m.NodeID(1, 0), PortEast},
		{m.NodeID(3, 0), PortWest}, // wrap west is 1 hop, east is 3
		{m.NodeID(0, 1), PortSouth},
		{m.NodeID(0, 3), PortNorth}, // wrap north is 1 hop
		{m.NodeID(2, 0), PortEast},  // tie (2 hops both ways) -> positive
		{at, PortLocal},
	}
	for _, c := range cases {
		if got := m.cfg.route(at, c.dst); got != c.want {
			t.Errorf("route(0 -> %d) = %d, want %d", c.dst, got, c.want)
		}
	}
}

func TestTorusWrapDetection(t *testing.T) {
	m := testTorus(t, 4)
	if !m.cfg.crossesWrap(m.NodeID(3, 1), PortEast) {
		t.Error("east from x=3 should wrap")
	}
	if m.cfg.crossesWrap(m.NodeID(2, 1), PortEast) {
		t.Error("east from x=2 should not wrap")
	}
	if !m.cfg.crossesWrap(m.NodeID(1, 0), PortNorth) {
		t.Error("north from y=0 should wrap")
	}
	if m.cfg.crossesWrap(m.NodeID(1, 0), PortLocal) {
		t.Error("local never wraps")
	}
}

func TestTorusDatelineVC(t *testing.T) {
	m := testTorus(t, 4)
	// Crossing the wrap moves VC 0 -> 1.
	if got := m.cfg.torusOutVC(m.NodeID(3, 0), PortEast, PortWest, 0); got != 1 {
		t.Errorf("wrap crossing kept VC %d", got)
	}
	// Continuing in-dimension on the high VC stays high.
	if got := m.cfg.torusOutVC(m.NodeID(1, 0), PortEast, PortWest, 1); got != 1 {
		t.Errorf("post-dateline VC dropped to %d", got)
	}
	// Turning into Y resets to the low half.
	if got := m.cfg.torusOutVC(m.NodeID(1, 0), PortSouth, PortWest, 1); got != 0 {
		t.Errorf("dimension turn kept VC %d", got)
	}
	// Injection (local input) starts low even if the caller passes a
	// high VC.
	if got := m.cfg.torusOutVC(m.NodeID(1, 1), PortEast, PortLocal, 1); got != 0 {
		t.Errorf("fresh injection VC = %d, want 0", got)
	}
}

func TestTorusAllPairsDelivery(t *testing.T) {
	for _, k := range []int{3, 4} {
		m := testTorus(t, k)
		count := 0
		for s := 0; s < m.Nodes(); s++ {
			for d := 0; d < m.Nodes(); d++ {
				m.Send(s, d, 5)
				count++
			}
		}
		if !m.Drain(50000) {
			t.Fatalf("k=%d torus did not drain; %d in flight", k, m.InFlight())
		}
		var total int64
		for s := 0; s < m.Nodes(); s++ {
			total += m.DeliveredPackets[s]
		}
		if total != int64(count) {
			t.Fatalf("k=%d: delivered %d of %d", k, total, count)
		}
	}
}

// TestTorusNoDeadlockUnderHeavyLoad is the deadlock regression test:
// sustained high uniform load around the wrap links must always make
// forward progress and drain.
func TestTorusNoDeadlockUnderHeavyLoad(t *testing.T) {
	m := testTorus(t, 4)
	src := rng.New(31)
	inj := NewInjector(m, 0.08, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 12), src)
	inj.MaxPending = 4
	for c := 0; c < 40000; c++ {
		inj.Step()
		m.Step()
	}
	if !m.Drain(200000) {
		t.Fatalf("torus deadlocked or livelocked; %d packets in flight", m.InFlight())
	}
	var injected, delivered int64
	for n := 0; n < m.Nodes(); n++ {
		injected += inj.Injected[n]
		delivered += m.DeliveredPackets[n]
	}
	if injected == 0 || injected != delivered {
		t.Fatalf("injected %d, delivered %d", injected, delivered)
	}
}

// TestTorusShorterPathsThanMesh: average latency on the torus must be
// below the mesh's for uniform traffic at low load (wraparound halves
// the average hop count).
func TestTorusShorterPathsThanMesh(t *testing.T) {
	run := func(torus bool) float64 {
		m, err := NewMesh(Config{
			K: 4, VCs: 2, BufFlits: 8, Torus: torus,
			NewArb: func() sched.Scheduler { return core.New() },
		})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(17)
		inj := NewInjector(m, 0.01, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), src)
		for c := 0; c < 20000; c++ {
			inj.Step()
			m.Step()
		}
		m.Drain(100000)
		return m.Latency.Mean()
	}
	mesh := run(false)
	torus := run(true)
	if torus >= mesh {
		t.Errorf("torus latency %.1f >= mesh %.1f at low load", torus, mesh)
	}
}
