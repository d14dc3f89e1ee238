package wormhole

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/sched"
)

// saturatedRouter builds a 2-port router with both inputs feeding
// output 1 (a sink) and keeps it saturated: the shape of the
// steady-state forwarding hot path, with link arbitration between two
// competing worms on every cycle.
func saturatedRouter(t testing.TB) (*Router, func(cycle int64)) {
	cfg := Config{
		Ports: 2, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
		Route:  func(_, dst int) int { return 1 },
	}
	r, err := NewRouter(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ConnectEndpoint(r, 0, &Sink{})
	ConnectEndpoint(r, 1, &Sink{})
	// One endlessly repeated 4-flit packet per input VC; the router
	// never inspects PktID/Seq beyond Kind, so recycling one packet is
	// indistinguishable from a fresh stream.
	pkt := flit.Packet{Flow: 0, Length: 4, Dst: 9}
	flits := pkt.Flits()
	idx := make([]int, cfg.Ports*cfg.VCs)
	feed := func(cycle int64) {
		for p := 0; p < cfg.Ports; p++ {
			for v := 0; v < cfg.VCs; v++ {
				if r.InputFree(p, v) > 0 {
					i := &idx[p*cfg.VCs+v]
					r.Inject(p, v, flits[*i], cycle)
					*i = (*i + 1) % len(flits)
				}
			}
		}
	}
	return r, feed
}

// TestRouterComputeAllocsZero gates the zero-allocation steady state
// at the router level: once the FIFOs, work-lists, effect buffers, and
// arbiter state are warm, a full Step cycle — feed, Compute, Apply —
// must not allocate, under sustained saturation of every input VC.
func TestRouterComputeAllocsZero(t *testing.T) {
	r, feed := saturatedRouter(t)
	cycle := int64(0)
	for c := 0; c < 64; c++ {
		cycle++
		feed(cycle)
		r.Step(cycle)
	}
	// One measured run of many cycles: AllocsPerRun returns its total,
	// so an allocation rarer than once per cycle still counts.
	const cycles = 20000
	got := testing.AllocsPerRun(1, func() {
		for c := 0; c < cycles; c++ {
			cycle++
			feed(cycle)
			r.Step(cycle)
		}
	})
	if got != 0 {
		t.Errorf("saturated Router.Step allocates %.0f times in %d steady-state cycles, want 0", got, cycles)
	}
}

// TestConnectAllocatesNothing: wiring a link stores router pointers,
// ports and credits in the arena, for credit-based and stop/go (DAMQ)
// links alike, so building a network allocates nothing per link.
func TestConnectAllocatesNothing(t *testing.T) {
	for name, cfg := range map[string]Config{"credits": testConfig(2, 2, 4), "damq": damqConfig(2, 2, 1, 6)} {
		a, err := NewRouter(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRouter(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() { Connect(a, 1, b, 0) }); got != 0 {
			t.Errorf("%s: Connect allocates %.0f times per link, want 0", name, got)
		}
	}
}
