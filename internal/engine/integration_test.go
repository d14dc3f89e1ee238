package engine_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TestFullSystemTraceVerifies is the cross-module integration check:
// a paper-style workload (skewed rates and lengths, oversubscribed)
// driven through the engine with a traced ERR, then audited by
// check.VerifyTrace against Lemma 1 and Theorem 2, with the measured
// fairness checked against Theorem 3's 3m bound over the backlogged
// second half of the run.
func TestFullSystemTraceVerifies(t *testing.T) {
	const flows = 8
	const cycles = 400_000
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)

	src := rng.New(2027)
	sources := make([]traffic.Source, flows)
	// Rates chosen so every flow oversubscribes its fair share, as in
	// Figure 4.
	r := 1.5 / 324.5
	for f := 0; f < flows; f++ {
		rate := r
		dist := rng.LengthDist(rng.NewUniform(1, 64))
		if f == 2 {
			dist = rng.NewUniform(1, 128)
		}
		if f == 3 {
			rate = 2 * r
		}
		sources[f] = traffic.NewBernoulli(f, rate, dist, src.Split())
	}

	ft := metrics.NewFairnessTracker(flows)
	var m int64
	eng, err := engine.NewEngine(engine.Config{
		Flows:     flows,
		Scheduler: e,
		Source:    traffic.NewMulti(sources...),
		OnFlit: func(cycle int64, flow int) {
			if cycle >= cycles/2 {
				ft.Serve(flow, 1)
			}
		},
		OnDeparture: func(p flit.Packet, cycle, occ int64) {
			if int64(p.Length) > m {
				m = int64(p.Length)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cycles)

	if err := check.VerifyTrace(rec, m, 3); err != nil {
		t.Fatalf("trace verification failed: %v", err)
	}
	if bound := check.ERRFairnessBound(m); ft.FM() >= bound {
		t.Errorf("measured FM %d >= 3m = %d", ft.FM(), bound)
	}
	if m < 100 {
		t.Fatalf("workload degenerate: m = %d", m)
	}
}
