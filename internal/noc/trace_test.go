package noc

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// traceScenario is the flight-recorder workload: three bursts of 60
// packets on the 4x4 mesh, traced 1-in-sample.
func traceScenario(sample int, spec string) scenario {
	return scenario{
		cfg:   meshCfg(false, 0),
		spec:  spec,
		sends: burstSends(16, 21, []int64{0, 900, 2600}, 60),
		run:   4000,
		drain: 6000,
		trace: &TraceConfig{Seed: 0xfeed, SampleEvery: sample, EpochCycles: 512},
	}
}

// TestTraceByteIdenticalAcrossModes pins the flight recorder's central
// contract: with full sampling and an active fault spec, the JSONL
// spans, the Chrome trace, and the rollup table are byte-identical
// across the reference, event-driven, and pool-sharded (4 workers)
// stepping.
func TestTraceByteIdenticalAcrossModes(t *testing.T) {
	ref, _ := assertMatchesReference(t, "trace",
		traceScenario(1, "stall(router=5,port=1,at=300,dur=400);freeze(router=6,at=1000,dur=200)"), []int{4})
	if len(ref.tr.Records()) == 0 {
		t.Fatal("scenario degenerate: no records traced")
	}
	if ref.tr.Dropped() != 0 {
		t.Fatalf("reference dropped %d records; grow the rings", ref.tr.Dropped())
	}
}

// TestTraceSampledSubset pins that sampling selects by packet id, not
// by record availability: every record of a 1-in-4 run also appears in
// the full-sampling run, and the sampled ids agree with the Sampler.
func TestTraceSampledSubset(t *testing.T) {
	ftr := runScenario(t, traceScenario(1, ""), false).tr
	str := runScenario(t, traceScenario(4, ""), false).tr
	if str.Dropped() != 0 || ftr.Dropped() != 0 {
		t.Fatal("rings overflowed; grow them")
	}
	fullSet := map[trace.Record]bool{}
	for _, r := range ftr.Records() {
		fullSet[r] = true
	}
	recs := str.Records()
	if len(recs) == 0 {
		t.Fatal("1-in-4 sampling traced nothing")
	}
	if len(recs) >= len(fullSet) {
		t.Fatalf("sampling did not thin records: %d of %d", len(recs), len(fullSet))
	}
	s := str.Sampler()
	for _, r := range recs {
		if !fullSet[r] {
			t.Fatalf("sampled record absent from full run: %+v", r)
		}
		if !s.Sample(r.PktID) {
			t.Fatalf("record for unsampled packet %d", r.PktID)
		}
	}
}

// TestTraceAuditClean runs the span auditor over a faulted scenario
// and requires zero invariant violations.
func TestTraceAuditClean(t *testing.T) {
	tr := runScenario(t, traceScenario(1, "stall(router=5,port=1,at=300,dur=400)"), false).tr
	viol := 0
	n := trace.Audit(tr.Records(), func(cycle int64, invariant string, flow int, format string, argv ...any) {
		viol++
		t.Errorf("cycle %d %s flow %d: "+format, append([]any{cycle, invariant, flow}, argv...)...)
	})
	if n != viol {
		t.Fatalf("Audit returned %d but reported %d violations", n, viol)
	}
}

// FuzzTraceOracle fuzzes the cross-mode byte-identity contract over
// the sampling seed, the traffic seed, and the fault windows: the
// reference and the event-driven run of the same scenario must export
// identical bytes, and the auditor must stay silent.
func FuzzTraceOracle(f *testing.F) {
	f.Add(uint64(1), int64(7), 300, 400)
	f.Add(uint64(0xfeed), int64(21), 0, 0)
	f.Add(uint64(42), int64(3), 950, 60)
	f.Fuzz(func(t *testing.T, seed uint64, traffic int64, at, dur int) {
		if at < 0 || dur < 0 || at > 3000 || dur > 2000 {
			t.Skip()
		}
		s := scenario{
			cfg:   Config{K: 3, VCs: 2, BufFlits: 4, NewArb: newERR},
			sends: burstSends(9, uint64(traffic), []int64{0, 700}, 25),
			run:   1500,
			drain: 4000,
			trace: &TraceConfig{Seed: seed, SampleEvery: 1, EpochCycles: 256},
		}
		if dur > 0 {
			s.spec = fmt.Sprintf("stall(router=5,port=1,at=%d,dur=%d)", at, dur)
		}
		ref := runScenario(t, s, true)
		assertArtifactsEqual(t, "trace", ref, runScenario(t, s, false), false)
		if n := trace.Audit(ref.tr.Records(), func(cycle int64, invariant string, flow int, format string, argv ...any) {
			t.Errorf("cycle %d %s flow %d: "+format, append([]any{cycle, invariant, flow}, argv...)...)
		}); n != 0 {
			t.Fatalf("%d span-invariant violations", n)
		}
	})
}

// TestTraceDisabledInstallsNothing pins the contract behind the
// overhead gate's no-op control: with SampleEvery <= 0, EnableTrace
// leaves the mesh untouched — no inject/deliver hook, no router
// tracers — so running with the recorder disabled is structurally the
// run without a recorder, and the returned Trace stays empty.
func TestTraceDisabledInstallsNothing(t *testing.T) {
	m, err := NewMesh(meshCfg(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTrace(TraceConfig{Seed: 1, SampleEvery: 0})
	if m.tr != nil {
		t.Fatal("EnableTrace(SampleEvery=0) attached a recorder to the mesh")
	}
	src := rng.New(3)
	for i := 0; i < 40; i++ {
		m.Send(src.Intn(m.Nodes()), src.Intn(m.Nodes()), src.IntRange(1, 4))
	}
	m.Run(500)
	m.Drain(4000)
	tr.Finish(m.Cycle())
	if n := len(tr.Records()); n != 0 {
		t.Fatalf("disabled recorder collected %d records", n)
	}
	if got := tr.Rollup().Latency().Count(); got != 0 {
		t.Fatalf("disabled recorder observed %d latencies", got)
	}
}
