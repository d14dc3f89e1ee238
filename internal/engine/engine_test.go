package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Flows: 0, Scheduler: sched.NewFCFS()}); err == nil {
		t.Error("Flows=0 accepted")
	}
	if _, err := NewEngine(Config{Flows: 1}); err == nil {
		t.Error("no scheduler accepted")
	}
	if _, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS(), FlitSched: sched.NewFBRR()}); err == nil {
		t.Error("two schedulers accepted")
	}
	// Length-aware + stalls is refused by default...
	if _, err := NewEngine(Config{
		Flows: 1, Scheduler: sched.NewDRR(64, nil),
		Stall: StallFunc(func(int) int { return 1 }),
	}); err == nil {
		t.Error("DRR with stalls accepted without override")
	}
	// ...but allowed with the ablation override.
	if _, err := NewEngine(Config{
		Flows: 1, Scheduler: sched.NewDRR(64, nil),
		Stall:                  StallFunc(func(int) int { return 1 }),
		AllowLengthAwareStalls: true,
	}); err != nil {
		t.Errorf("override rejected: %v", err)
	}
	// ERR with stalls needs no override.
	if _, err := NewEngine(Config{
		Flows: 1, Scheduler: core.New(),
		Stall: StallFunc(func(int) int { return 1 }),
	}); err != nil {
		t.Errorf("ERR with stalls rejected: %v", err)
	}
}

func TestOneFlitPerCycle(t *testing.T) {
	e, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	var flits int
	var depCycle int64 = -1
	e.cfg.OnFlit = func(cycle int64, flow int) { flits++ }
	e.cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) { depCycle = cycle }
	e.Inject(flit.Packet{Flow: 0, Length: 5})
	e.Run(5)
	if flits != 5 {
		t.Errorf("forwarded %d flits in 5 cycles, want 5", flits)
	}
	if depCycle != 4 {
		t.Errorf("tail flit left at cycle %d, want 4", depCycle)
	}
	if e.Backlog() != 0 {
		t.Error("backlog not drained")
	}
}

func TestDelayMeasurement(t *testing.T) {
	e, err := NewEngine(Config{Flows: 2, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	ds := metrics.NewDelayStats(2)
	e.cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) { ds.Departure(p, cycle) }
	e.Inject(flit.Packet{Flow: 0, Length: 3}) // served cycles 0-2, delay 3
	e.Inject(flit.Packet{Flow: 1, Length: 2}) // served cycles 3-4, delay 5
	e.Run(10)
	if ds.Count() != 2 {
		t.Fatalf("departures %d, want 2", ds.Count())
	}
	if ds.MeanOf(0) != 3 {
		t.Errorf("flow 0 delay %v, want 3", ds.MeanOf(0))
	}
	if ds.MeanOf(1) != 5 {
		t.Errorf("flow 1 delay %v, want 5", ds.MeanOf(1))
	}
}

func TestStallsExtendOccupancy(t *testing.T) {
	// One stall cycle before every flit: a 3-flit packet occupies 6
	// cycles and its flits leave at cycles 1, 3, 5.
	e, err := NewEngine(Config{
		Flows: 1, Scheduler: core.New(),
		Stall: StallFunc(func(int) int { return 1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var flitCycles []int64
	var occ int64
	e.cfg.OnFlit = func(cycle int64, flow int) { flitCycles = append(flitCycles, cycle) }
	e.cfg.OnDeparture = func(p flit.Packet, cycle, o int64) { occ = o }
	e.Inject(flit.Packet{Flow: 0, Length: 3})
	e.Run(6)
	if len(flitCycles) != 3 || flitCycles[0] != 1 || flitCycles[1] != 3 || flitCycles[2] != 5 {
		t.Errorf("flit cycles %v, want [1 3 5]", flitCycles)
	}
	if occ != 6 {
		t.Errorf("occupancy %d, want 6", occ)
	}
}

func TestERRBilledOccupancyNotLength(t *testing.T) {
	// Flow 1 suffers 1 stall per flit (occupancy 2x length). ERR must
	// equalise occupancy, so flow 1 gets ~half the flits of flow 0.
	errSched := core.New()
	e, err := NewEngine(Config{
		Flows:     2,
		Scheduler: errSched,
		Stall: StallFunc(func(flow int) int {
			if flow == 1 {
				return 1
			}
			return 0
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make([]int64, 2)
	e.cfg.OnFlit = func(cycle int64, flow int) { served[flow]++ }
	src := rng.New(42)
	dist := rng.NewUniform(1, 16)
	e.cfg.Source = traffic.NewMulti(
		traffic.NewBacklogged(0, 4, dist, src.Split()),
		traffic.NewBacklogged(1, 4, dist, src.Split()),
	)
	e.Run(200000)
	r := float64(served[0]) / float64(served[1])
	if r < 1.85 || r > 2.15 {
		t.Errorf("flit ratio %.3f, want ~2 (occupancy-fair)", r)
	}
}

func TestFlitModeFBRRInterleaves(t *testing.T) {
	e, err := NewEngine(Config{Flows: 2, FlitSched: sched.NewFBRR()})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	e.cfg.OnFlit = func(cycle int64, flow int) { order = append(order, flow) }
	e.Inject(flit.Packet{Flow: 0, Length: 3})
	e.Inject(flit.Packet{Flow: 1, Length: 3})
	e.Run(6)
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FBRR order %v, want %v", order, want)
		}
	}
	if e.Backlog() != 0 {
		t.Error("backlog not drained")
	}
}

func TestFlitModeDeparture(t *testing.T) {
	e, err := NewEngine(Config{Flows: 2, FlitSched: sched.NewFBRR()})
	if err != nil {
		t.Fatal(err)
	}
	var deps []int64
	e.cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) {
		deps = append(deps, cycle)
		if occ != int64(p.Length) {
			t.Errorf("flit-mode occupancy %d != length %d", occ, p.Length)
		}
	}
	e.Inject(flit.Packet{Flow: 0, Length: 2})
	e.Inject(flit.Packet{Flow: 1, Length: 1})
	e.Run(3)
	// Interleaving 0,1,0: flow 1 departs at cycle 1, flow 0 at cycle 2.
	if len(deps) != 2 || deps[0] != 1 || deps[1] != 2 {
		t.Errorf("departures %v, want [1 2]", deps)
	}
}

// TestFlitModeStalls pins the stall model under a flit scheduler: the
// stall is drawn when FBRR selects a flit and holds the output that
// many cycles, each reported to OnStall for the selected flow. One
// stall cycle per flit forwards one flit every two cycles, and each
// packet's occupancy counts its stall cycles. Without OnStall the
// stall cycles go to OnIdle.
func TestFlitModeStalls(t *testing.T) {
	for _, withOnStall := range []bool{true, false} {
		e, err := NewEngine(Config{
			Flows: 2, FlitSched: sched.NewFBRR(),
			Stall: StallFunc(func(int) int { return 1 }),
		})
		if err != nil {
			t.Fatal(err)
		}
		var flits, stalls, idles []int64
		var flows, stallFlows []int
		e.cfg.OnFlit = func(cycle int64, flow int) {
			flits = append(flits, cycle)
			flows = append(flows, flow)
		}
		if withOnStall {
			e.cfg.OnStall = func(cycle int64, flow int) {
				stalls = append(stalls, cycle)
				stallFlows = append(stallFlows, flow)
			}
		}
		e.cfg.OnIdle = func(cycle int64) { idles = append(idles, cycle) }
		e.cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) {
			if occ != 2*int64(p.Length) {
				t.Errorf("flow %d occupancy %d, want %d", p.Flow, occ, 2*p.Length)
			}
		}
		e.Inject(flit.Packet{Flow: 0, Length: 2})
		e.Inject(flit.Packet{Flow: 1, Length: 2})
		e.Run(9)
		if fmt.Sprint(flits, flows) != "[1 3 5 7] [0 1 0 1]" {
			t.Errorf("flits at %v of flows %v, want [1 3 5 7] of [0 1 0 1]", flits, flows)
		}
		wantStalls, wantIdles := "[0 2 4 6] [0 1 0 1]", "[8]"
		if !withOnStall {
			wantStalls, wantIdles = "[] []", "[0 2 4 6 8]"
		}
		if fmt.Sprint(stalls, stallFlows) != wantStalls || fmt.Sprint(idles) != wantIdles {
			t.Errorf("OnStall at %v of flows %v, OnIdle at %v; want %s, %s (OnStall set: %v)",
				stalls, stallFlows, idles, wantStalls, wantIdles, withOnStall)
		}
	}
}

func TestIdleCyclesReported(t *testing.T) {
	e, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	e.cfg.OnIdle = func(cycle int64) { idle++ }
	e.Run(5)
	if idle != 5 {
		t.Errorf("idle cycles %d, want 5", idle)
	}
}

func TestRunUntilDrained(t *testing.T) {
	e, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	e.Inject(flit.Packet{Flow: 0, Length: 4})
	cycles, drained := e.RunUntilDrained(100)
	if !drained || cycles != 4 {
		t.Errorf("drained=%v after %d cycles, want true after 4", drained, cycles)
	}
	// Already drained: returns immediately.
	cycles, drained = e.RunUntilDrained(100)
	if !drained || cycles != 0 {
		t.Errorf("second drain: %v %d", drained, cycles)
	}
}

func TestRunUntilDrainedTimeout(t *testing.T) {
	e, err := NewEngine(Config{
		Flows: 1, Scheduler: sched.NewFCFS(),
		Source: traffic.NewBacklogged(0, 2, rng.Constant{Length: 8}, rng.New(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // prime a packet
	_, drained := e.RunUntilDrained(50)
	if drained {
		t.Error("backlogged source reported drained")
	}
}

func TestArrivalCanBeServedSameCycle(t *testing.T) {
	src := rng.New(1)
	e, err := NewEngine(Config{
		Flows:     1,
		Scheduler: sched.NewFCFS(),
		Source:    traffic.NewWindow(traffic.NewBernoulli(0, 1.0, rng.Constant{Length: 1}, src), 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var served int
	e.cfg.OnFlit = func(cycle int64, flow int) {
		if cycle != 0 {
			t.Errorf("flit at cycle %d, want 0", cycle)
		}
		served++
	}
	e.Run(1)
	if served != 1 {
		t.Error("arrival not served in its own cycle")
	}
}

func TestQueueLenIncludesInService(t *testing.T) {
	e, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	e.Inject(flit.Packet{Flow: 0, Length: 10})
	e.Inject(flit.Packet{Flow: 0, Length: 10})
	e.Step() // first packet now in service
	if got := e.QueueLen(0); got != 2 {
		t.Errorf("QueueLen = %d, want 2 (1 queued + 1 in service)", got)
	}
}

func TestInjectValidation(t *testing.T) {
	e, err := NewEngine(Config{Flows: 1, Scheduler: sched.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		p    flit.Packet
		want error
	}{
		"zero length":  {flit.Packet{Flow: 0, Length: 0}, flit.ErrZeroLength},
		"flow too big": {flit.Packet{Flow: 5, Length: 1}, flit.ErrBadFlow},
	} {
		if err := e.Inject(tc.p); !errors.Is(err, tc.want) {
			t.Errorf("%s: Inject err = %v, want %v", name, err, tc.want)
		}
	}
	// Rejections are counted and leave the engine untouched.
	if got := e.Rejected(); got != 2 {
		t.Errorf("Rejected = %d, want 2", got)
	}
	if got := e.BacklogFlits(); got != 0 {
		t.Errorf("BacklogFlits = %d after rejected injections, want 0", got)
	}
}

// The engine + ServiceLog + ERR end to end: equal service for
// backlogged flows with heterogeneous packet lengths, FM bounded.
func TestEndToEndERRFairness(t *testing.T) {
	src := rng.New(99)
	e, err := NewEngine(Config{
		Flows:     3,
		Scheduler: core.New(),
		Source: traffic.NewMulti(
			traffic.NewBacklogged(0, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(1, 4, rng.NewUniform(1, 128), src.Split()),
			traffic.NewBacklogged(2, 4, rng.Constant{Length: 17}, src.Split()),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	log := metrics.NewServiceLog(3, 0)
	e.cfg.OnFlit = func(cycle int64, flow int) { log.Record(flow) }
	e.cfg.OnIdle = func(cycle int64) { log.Record(metrics.Idle) }
	const cycles = 300000
	e.Run(cycles)
	// Equal thirds within 3m = 384 flits.
	for f := 0; f < 3; f++ {
		got := log.Total(f)
		want := int64(cycles / 3)
		if got < want-384 || got > want+384 {
			t.Errorf("flow %d served %d flits, want %d +/- 384", f, got, want)
		}
	}
	// And the max-interval FM respects Theorem 3 (m = 128).
	if fm := log.FM(0, cycles); fm >= 3*128 {
		t.Errorf("whole-run FM %d >= 384", fm)
	}
}
