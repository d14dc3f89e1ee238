package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// TestGoldenStallAccounting pins the full stall-accounting chain —
// engine callbacks, ServiceLog, and the obs.Collector — against a
// hand-computed execution. FCFS serves in global arrival order, so
// with two packets injected at cycle 0 the schedule is exact:
//
//	flow 0: length 3, one stall cycle before every flit
//	flow 1: length 2, no stalls
//
//	cycle 0: stall f0      cycle 5: flit f0 (departs, occ 6)
//	cycle 1: flit f0       cycle 6: flit f1
//	cycle 2: stall f0      cycle 7: flit f1 (departs, occ 2)
//	cycle 3: flit f0       cycle 8: idle
//	cycle 4: stall f0      cycle 9: idle
//
// Over 10 cycles: 5 flit cycles (3 + 2), 3 stalled, 2 idle; delays
// 6 and 8 (tail cycle − arrival + 1), occupancies 6 and 2, per-packet
// stalls 3 and 0, backlog high water 2.
func TestGoldenStallAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg, 2)
	res, err := RunSim(SimConfig{
		Flows:     2,
		Scheduler: sched.NewFCFS(),
		Source: traffic.NewReplay([]traffic.TraceEvent{
			{Cycle: 0, Flow: 0, Length: 3},
			{Cycle: 0, Flow: 1, Length: 2},
		}),
		Cycles:  10,
		WithLog: true,
		Stall: engine.StallFunc(func(flow int) int {
			if flow == 0 {
				return 1
			}
			return 0
		}),
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}

	// ServiceLog accounting.
	if got := res.Log.Cycles(); got != 10 {
		t.Fatalf("log cycles = %d, want 10", got)
	}
	if got := res.Log.Total(0); got != 3 {
		t.Errorf("flow 0 served = %d, want 3", got)
	}
	if got := res.Log.Total(1); got != 2 {
		t.Errorf("flow 1 served = %d, want 2", got)
	}
	if got := res.Log.StalledCycles(); got != 3 {
		t.Errorf("stalled cycles = %d, want 3", got)
	}
	if got := res.Log.IdleCycles(); got != 2 {
		t.Errorf("idle cycles = %d, want 2", got)
	}
	if got := res.Log.Utilization(); got != 0.8 {
		t.Errorf("utilization = %v, want 0.8", got)
	}

	// DelayStats sees the same departures.
	if got := res.Delays.Mean(); got != 7 {
		t.Errorf("mean delay = %v, want 7 (delays 6 and 8)", got)
	}

	// Collector counters mirror the log exactly.
	for name, want := range map[string]int64{
		"engine.flit_cycles":  5,
		"engine.stall_cycles": 3,
		"engine.idle_cycles":  2,
		"engine.injections":   2,
		"engine.departures":   2,
		// A Replay makes no quiet promise: polled every cycle.
		"engine.source_polls": 10,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := col.FlitsServed.Values(); got[0] != 3 || got[1] != 2 {
		t.Errorf("flits_served = %v, want [3 2]", got)
	}
	if got := col.Backlog.Value(); got != 0 {
		t.Errorf("backlog = %d, want 0 after both departures", got)
	}
	if got := col.BacklogHighWater.Value(); got != 2 {
		t.Errorf("backlog high water = %d, want 2", got)
	}

	// Histogram contents: delay {6, 8}, occupancy {6, 2}, per-packet
	// stalls {3, 0}.
	if d := col.Delay; d.Count() != 2 || d.Sum() != 14 || d.Max() != 8 {
		t.Errorf("delay histogram count/sum/max = %d/%d/%d, want 2/14/8",
			d.Count(), d.Sum(), d.Max())
	}
	if o := col.Occupancy; o.Count() != 2 || o.Sum() != 8 || o.Max() != 6 {
		t.Errorf("occupancy histogram count/sum/max = %d/%d/%d, want 2/8/6",
			o.Count(), o.Sum(), o.Max())
	}
	if s := col.StallPerPacket; s.Count() != 2 || s.Sum() != 3 || s.Max() != 3 {
		t.Errorf("stall histogram count/sum/max = %d/%d/%d, want 2/3/3",
			s.Count(), s.Sum(), s.Max())
	}
}

// TestRunSimReportsSourcePolls checks that RunSim surfaces the
// engine's poll count as engine.source_polls: a backlogged source is
// polled at cycle 0 and after each departure inside the run.
func TestRunSimReportsSourcePolls(t *testing.T) {
	reg := obs.NewRegistry()
	src := rng.New(2)
	_, err := RunSim(SimConfig{
		Flows:     2,
		Scheduler: core.New(),
		Source: traffic.NewMulti(
			traffic.NewBacklogged(0, 4, rng.NewUniform(1, 8), src.Split()),
			traffic.NewBacklogged(1, 4, rng.NewUniform(1, 8), src.Split()),
		),
		Cycles:    5000,
		Collector: obs.NewCollector(reg, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A departure on the last cycle triggers no poll inside the run.
	polls, deps := reg.Counter("engine.source_polls").Value(), reg.Counter("engine.departures").Value()
	if polls != deps+1 && polls != deps {
		t.Errorf("engine.source_polls = %d, want 1 + %d departures (or %d)", polls, deps, deps)
	}
}

// TestCollectorDoesNotPerturbResults pins the overhead contract's
// semantic half: wiring a collector must leave every simulation
// result — throughput, delays, the service log — bit-identical.
func TestCollectorDoesNotPerturbResults(t *testing.T) {
	run := func(col *obs.Collector) *SimResult {
		res, err := RunSim(SimConfig{
			Flows:     2,
			Scheduler: sched.NewFCFS(),
			Source: traffic.NewReplay([]traffic.TraceEvent{
				{Cycle: 0, Flow: 0, Length: 3},
				{Cycle: 2, Flow: 1, Length: 5},
				{Cycle: 4, Flow: 0, Length: 2},
			}),
			Cycles:    40,
			WithLog:   true,
			Stall:     engine.StallFunc(func(flow int) int { return flow }),
			Collector: col,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	wired := run(obs.NewCollector(obs.NewRegistry(), 2))
	if bare.Delays.Mean() != wired.Delays.Mean() {
		t.Errorf("mean delay changed: %v vs %v", bare.Delays.Mean(), wired.Delays.Mean())
	}
	for f := 0; f < 2; f++ {
		if bare.Log.Total(f) != wired.Log.Total(f) {
			t.Errorf("flow %d served changed: %d vs %d", f, bare.Log.Total(f), wired.Log.Total(f))
		}
	}
	if bare.Log.StalledCycles() != wired.Log.StalledCycles() ||
		bare.Log.IdleCycles() != wired.Log.IdleCycles() {
		t.Errorf("stall/idle accounting changed: %d/%d vs %d/%d",
			bare.Log.StalledCycles(), bare.Log.IdleCycles(),
			wired.Log.StalledCycles(), wired.Log.IdleCycles())
	}
}
