package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

func testMesh(t *testing.T, k int) *Mesh {
	t.Helper()
	m, err := NewMesh(Config{
		K: k, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(Config{K: 1, NewArb: func() sched.Scheduler { return core.New() }}); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := NewMesh(Config{K: 2, VCs: 1, BufFlits: 4}); err == nil {
		t.Error("missing NewArb accepted")
	}
	if _, err := NewMesh(Config{K: 2, VCs: 1, BufFlits: 4,
		NewArb: func() sched.Scheduler { return sched.NewDRR(64, nil) }}); err == nil {
		t.Error("length-aware arbiter accepted")
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	m := testMesh(t, 4)
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.Coords(id)
		if m.NodeID(x, y) != id {
			t.Fatalf("coords round trip broken for %d", id)
		}
	}
}

func TestXYRouting(t *testing.T) {
	m := testMesh(t, 3)
	// From center (1,1) = id 4.
	cases := []struct {
		dst  int
		want int
	}{
		{m.NodeID(2, 1), PortEast},
		{m.NodeID(0, 1), PortWest},
		{m.NodeID(1, 2), PortSouth},
		{m.NodeID(1, 0), PortNorth},
		{m.NodeID(1, 1), PortLocal},
		// X first: (2,2) from (1,1) goes East, not South.
		{m.NodeID(2, 2), PortEast},
		{m.NodeID(0, 0), PortWest},
	}
	at := m.NodeID(1, 1)
	for _, c := range cases {
		if got := m.cfg.route(at, c.dst); got != c.want {
			t.Errorf("route(%d -> %d) = %d, want %d", at, c.dst, got, c.want)
		}
	}
}

// closedFormRoute is dimension-order routing written from its
// definition, with coordinates and ring distances taken modulo K: the
// specification Config.route (which routes without tables, and with
// two divisions per head flit) must equal.
func closedFormRoute(k int, torus bool, at, dst int) int {
	dir := func(a, d, pos, neg int) int {
		if !torus {
			if d > a {
				return pos
			}
			return neg
		}
		if (d-a+k)%k <= (a-d+k)%k {
			return pos
		}
		return neg
	}
	ax, ay, dx, dy := at%k, at/k, dst%k, dst/k
	switch {
	case dx != ax:
		return dir(ax, dx, PortEast, PortWest)
	case dy != ay:
		return dir(ay, dy, PortSouth, PortNorth)
	}
	return PortLocal
}

// TestRouteMatchesClosedForm checks Config.route against the closed
// form for every (router, destination) pair of every mesh and torus
// with K = 2..9.
func TestRouteMatchesClosedForm(t *testing.T) {
	for k := 2; k <= 9; k++ {
		for _, torus := range []bool{false, true} {
			c := Config{K: k, Torus: torus}
			for at := 0; at < k*k; at++ {
				for dst := 0; dst < k*k; dst++ {
					if got, want := c.route(at, dst), closedFormRoute(k, torus, at, dst); got != want {
						t.Fatalf("K=%d torus=%v: route(%d -> %d) = %d, want %d", k, torus, at, dst, got, want)
					}
				}
			}
		}
	}
}

func TestSinglePacketCrossesMesh(t *testing.T) {
	m := testMesh(t, 3)
	src := m.NodeID(0, 0)
	dst := m.NodeID(2, 2)
	m.Send(src, dst, 5)
	if !m.Drain(1000) {
		t.Fatal("packet not delivered")
	}
	if m.DeliveredPackets[src] != 1 {
		t.Fatalf("delivered count %d", m.DeliveredPackets[src])
	}
	if m.DeliveredFlits[src] != 5 {
		t.Fatalf("delivered flits %d", m.DeliveredFlits[src])
	}
	// 4 hops x (5 flits + pipeline) — latency must be at least
	// hops + length and well under the drain bound.
	lat := m.Latency.Mean()
	if lat < 9 || lat > 200 {
		t.Errorf("latency %v implausible for a 4-hop 5-flit packet", lat)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := testMesh(t, 2)
	m.Send(0, 0, 3) // self-addressed: ejects at own local port
	if !m.Drain(100) {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestAllPairsDelivery(t *testing.T) {
	m := testMesh(t, 3)
	count := 0
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			m.Send(s, d, 4)
			count++
		}
	}
	if !m.Drain(20000) {
		t.Fatalf("mesh did not drain; %d in flight", m.InFlight())
	}
	var total int64
	for s := 0; s < m.Nodes(); s++ {
		total += m.DeliveredPackets[s]
	}
	if total != int64(count) {
		t.Fatalf("delivered %d of %d packets", total, count)
	}
}

func TestUniformTrafficDrains(t *testing.T) {
	m := testMesh(t, 4)
	src := rng.New(11)
	inj := NewInjector(m, 0.02, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), src)
	for c := 0; c < 20000; c++ {
		inj.Step()
		m.Step()
	}
	if !m.Drain(50000) {
		t.Fatalf("uniform traffic did not drain; %d in flight", m.InFlight())
	}
	var injected, delivered int64
	for n := 0; n < m.Nodes(); n++ {
		injected += inj.Injected[n]
		delivered += m.DeliveredPackets[n]
	}
	if injected == 0 {
		t.Fatal("no packets injected")
	}
	if injected != delivered {
		t.Fatalf("injected %d, delivered %d", injected, delivered)
	}
	if m.Latency.N() != injected {
		t.Errorf("latency samples %d != packets %d", m.Latency.N(), injected)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	run := func(rate float64) float64 {
		m := testMesh(t, 4)
		src := rng.New(21)
		inj := NewInjector(m, rate, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), src)
		inj.MaxPending = 4
		for c := 0; c < 30000; c++ {
			inj.Step()
			m.Step()
		}
		return m.Latency.Mean()
	}
	low := run(0.005)
	high := run(0.05)
	if high <= low {
		t.Errorf("latency did not grow with load: %.2f (low) vs %.2f (high)", low, high)
	}
}

func TestTransposePattern(t *testing.T) {
	tr := Transpose{K: 4}
	s := rng.New(3)
	// (1,2) = id 9 -> (2,1) = id 6.
	if got := tr.Dest(9, s); got != 6 {
		t.Errorf("transpose dest of 9 = %d, want 6", got)
	}
	// Diagonal node: any destination but itself.
	if got := tr.Dest(5, s); got == 5 {
		t.Error("diagonal node sent to itself")
	}
}

func TestUniformPatternNeverSelf(t *testing.T) {
	u := Uniform{Nodes: 9}
	s := rng.New(5)
	for i := 0; i < 5000; i++ {
		src := s.Intn(9)
		if u.Dest(src, s) == src {
			t.Fatal("uniform pattern chose the source")
		}
	}
}

func TestHotspotPattern(t *testing.T) {
	h := Hotspot{Nodes: 16, Node: 5, Frac: 0.5}
	s := rng.New(7)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.Dest(3, s) == 5 {
			hits++
		}
	}
	frac := float64(hits) / n
	// 0.5 directed + (0.5 uniform)*(1/15) background.
	if frac < 0.48 || frac > 0.58 {
		t.Errorf("hotspot fraction %.3f", frac)
	}
	// The hotspot node itself never self-addresses via the hotspot.
	for i := 0; i < 1000; i++ {
		if h.Dest(5, s) == 5 {
			t.Fatal("hotspot node sent to itself")
		}
	}
}

// TestHotspotFairnessERRvsPBRR: under a hotspot, sources adjacent to
// the hotspot would capture the converging links with PBRR whenever
// their packets are long; ERR equalises occupancy. We check that the
// spread of per-source delivered flits (restricted to hotspot
// traffic) is no worse under ERR than under PBRR.
func TestHotspotFairnessERRvsPBRR(t *testing.T) {
	run := func(newArb func() sched.Scheduler) float64 {
		m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 8, NewArb: newArb})
		if err != nil {
			t.Fatal(err)
		}
		hot := m.NodeID(1, 1)
		// Every node floods the hotspot; node (0,1) sends long
		// packets, the rest short ones.
		for c := 0; c < 60000; c++ {
			for node := 0; node < m.Nodes(); node++ {
				if node == hot {
					continue
				}
				if m.PendingAt(node) < 2 {
					length := 2
					if node == m.NodeID(0, 1) {
						length = 16
					}
					m.Send(node, hot, length)
				}
			}
			m.Step()
		}
		flits := make([]float64, 0, m.Nodes()-1)
		for node := 0; node < m.Nodes(); node++ {
			if node != hot {
				flits = append(flits, float64(m.DeliveredFlits[node]))
			}
		}
		mean := 0.0
		for _, f := range flits {
			mean += f
		}
		mean /= float64(len(flits))
		return stats.MaxAbsDiff(flits) / mean
	}
	errSpread := run(func() sched.Scheduler { return core.New() })
	pbrrSpread := run(func() sched.Scheduler { return sched.NewPBRR() })
	if errSpread > pbrrSpread*1.25 {
		t.Errorf("ERR spread %.3f much worse than PBRR %.3f", errSpread, pbrrSpread)
	}
}
