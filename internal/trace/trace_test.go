package trace_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/trace"
)

// TestSamplerDeterminism pins the sampling contract: a pure function
// of (seed, id) with the documented edge rates.
func TestSamplerDeterminism(t *testing.T) {
	none := trace.NewSampler(7, 0)
	all := trace.NewSampler(7, 1)
	s := trace.NewSampler(7, 16)
	s2 := trace.NewSampler(7, 16)
	other := trace.NewSampler(8, 16)
	hits, diff := 0, 0
	const n = 1 << 16
	for id := int64(0); id < n; id++ {
		if none.Sample(id) {
			t.Fatal("every=0 sampled a packet")
		}
		if !all.Sample(id) {
			t.Fatal("every=1 skipped a packet")
		}
		if s.Sample(id) != s2.Sample(id) {
			t.Fatal("same (seed, every) disagreed")
		}
		if s.Sample(id) {
			hits++
		}
		if s.Sample(id) != other.Sample(id) {
			diff++
		}
	}
	want := n / 16
	if hits < want/2 || hits > want*2 {
		t.Fatalf("1-in-16 sampler hit %d of %d", hits, n)
	}
	if diff == 0 {
		t.Fatal("different seeds elected identical packets")
	}
}

// TestRecordsMergeOrder drives two router recorders and the mesh ring
// directly and pins the deterministic merge: (cycle, kind, ring), with
// inject before hop before deliver within a cycle.
func TestRecordsMergeOrder(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1, Flows: 4})
	r1 := tr.AddRouter(1, 2, 1, 4)
	r0 := tr.AddRouter(0, 2, 1, 4)
	hop := func(rt interface {
		HeadArrived(port, vc int, h flit.Flit, cycle int64)
		HeadEligible(port, vc int, pktID, cycle int64)
		Granted(port, vc, outPort, outVC int, pktID, cycle int64) bool
		Departed(inPort, inVC, outPort, outVC int, tail flit.Flit, cycle int64)
	}, pkt int64, at int64) {
		h := flit.Flit{Kind: flit.Head, PktID: pkt, Flow: 1, Dst: 3}
		rt.HeadArrived(0, 0, h, at)
		rt.HeadEligible(0, 0, pkt, at)
		if !rt.Granted(0, 0, 1, 0, pkt, at+1) {
			t.Fatalf("pkt %d not traced", pkt)
		}
		rt.Departed(0, 0, 1, 0, flit.Flit{Kind: flit.Tail, PktID: pkt, Flow: 1, Dst: 3, Seq: 1}, at+3)
	}
	tr.Inject(5, 0, 3, 1, 2, 10) // cycle 10: inject
	hop(r1, 5, 7)                // departs cycle 10 on router 1
	hop(r0, 6, 7)                // departs cycle 10 on router 0
	tr.Deliver(flit.Flit{Kind: flit.Tail, PktID: 7, Flow: 1, Dst: 3, Seq: 1}, 2, 4, 10)
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	wantKind := []trace.Kind{trace.KindInject, trace.KindHop, trace.KindHop, trace.KindDeliver}
	for i, k := range wantKind {
		if recs[i].Kind != k {
			t.Fatalf("record %d kind = %v, want %v", i, recs[i].Kind, k)
		}
	}
	if recs[1].Router != 0 || recs[2].Router != 1 {
		t.Fatalf("same-cycle hops not in ring order: routers %d, %d", recs[1].Router, recs[2].Router)
	}
	// Records must be repeatable (non-destructive rings).
	again := tr.Records()
	if len(again) != len(recs) {
		t.Fatalf("second Records call returned %d records, want %d", len(again), len(recs))
	}
}

// TestFaultCycles pins the export-time fault attribution overlap math.
func TestFaultCycles(t *testing.T) {
	rec := trace.Record{Kind: trace.KindHop, Router: 5, OutPort: 1, Grant: 100, Cycle: 119}
	ws := []trace.FaultWindow{
		{Router: 5, Port: 1, At: 110, End: 130},           // overlaps [110,119] = 10
		{Router: 5, Port: 2, At: 0, End: 1000},            // wrong port
		{Router: 6, Port: -1, At: 0, End: 1000},           // wrong router
		{Router: 5, Port: -1, At: 90, End: 102},           // freeze overlaps [100,101] = 2
		{Router: 5, Port: 1, At: 200, End: math.MaxInt64}, // after the span
	}
	if n := trace.FaultCycles(rec, ws); n != 12 {
		t.Fatalf("FaultCycles = %d, want 12", n)
	}
	if n := trace.FaultCycles(trace.Record{Kind: trace.KindInject}, ws); n != 0 {
		t.Fatalf("inject records must not attribute fault cycles, got %d", n)
	}
}

// TestWindowsFromSpecEnds pins each window's End: At+Dur for a
// finite window, math.MaxInt64 for a permanent one, including a window
// closing past the horizon, whose At+Dur used to wrap negative and
// attribute no fault cycles at all.
func TestWindowsFromSpecEnds(t *testing.T) {
	spec, err := fault.Parse("stall(router=5,port=1,at=10,dur=20);freeze(router=5,at=10);stall(router=5,port=1,at=10,dur=9223372036854775807);drop(p=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	ws := trace.WindowsFromSpec(spec)
	want := []int64{30, math.MaxInt64, math.MaxInt64}
	if len(ws) != len(want) {
		t.Fatalf("%d windows, want %d", len(ws), len(want))
	}
	for i, w := range ws {
		if w.At != 10 || w.End != want[i] {
			t.Errorf("window %d = [%d, %d), want [10, %d)", i, w.At, w.End, want[i])
		}
	}
	hop := trace.Record{Kind: trace.KindHop, Router: 5, OutPort: 1, Grant: 100, Cycle: 119}
	if n := trace.FaultCycles(hop, ws[2:]); n != 20 {
		t.Errorf("FaultCycles under the past-horizon stall = %d, want 20", n)
	}
}

// TestAuditFlagsBadSpans feeds the auditor records violating each span
// invariant and checks they are all reported.
func TestAuditFlagsBadSpans(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.KindHop, Arrive: 5, Eligible: 4, Grant: 6, Cycle: 7},             // order
		{Kind: trace.KindHop, Arrive: 0, Eligible: 0, Grant: 0, Cycle: 2, Contend: 9}, // decomposition
		{Kind: trace.KindDeliver, Arrive: 10, Cycle: 9},                               // deliver < inject
		{Kind: trace.KindHop, Arrive: 0, Eligible: 1, Grant: 2, Cycle: 5},             // clean
	}
	var got []string
	n := trace.Audit(recs, func(cycle int64, invariant string, flow int, format string, argv ...any) {
		got = append(got, invariant)
	})
	if n != 3 || len(got) != 3 {
		t.Fatalf("Audit reported %d/%d violations, want 3", n, len(got))
	}
	want := []string{"trace-span-order", "trace-decomposition", "trace-span-order"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violation %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestWriteRoundTable pins the round-table format core's golden tests
// depend on (core delegates its Figure 3 rendering here), on a real
// ERR recording of three busy periods of two flows: ERR numbers rounds
// from 1 again after going idle, and each "Round 1" must list only its
// own busy period's opportunities and MaxSC. The recording stops in
// the middle of the third busy period's first round.
func TestWriteRoundTable(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	serve := func(flow int, cost int64, nowEmpty bool) {
		t.Helper()
		if f := e.NextFlow(); f != flow {
			t.Fatalf("NextFlow = %d, want %d", f, flow)
		}
		e.OnPacketDone(flow, cost, nowEmpty)
	}
	e.OnArrival(0, true)
	e.OnArrival(0, false)
	e.OnArrival(1, true)
	serve(0, 4, false)
	serve(1, 1, true)
	serve(0, 1, true)
	e.OnArrival(0, true)
	e.OnArrival(1, true)
	serve(0, 1, true)
	serve(1, 5, true)
	e.OnArrival(0, true)
	e.OnArrival(0, false)
	e.OnArrival(1, true)
	serve(0, 2, false)

	var buf bytes.Buffer
	if err := trace.WriteRecorderTable(&buf, rec); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"Round 1 (PreviousMaxSC=0, visits=2)",
		"  flow 0: A=1    sent=4    SC=3",
		"  flow 1: A=1    sent=1    SC=0     [drained]",
		"  MaxSC=3",
		"Round 2 (PreviousMaxSC=3, visits=1)",
		"  flow 0: A=1    sent=1    SC=0     [drained]",
		"  MaxSC=0",
		"Round 1 (PreviousMaxSC=0, visits=2)",
		"  flow 0: A=1    sent=1    SC=0     [drained]",
		"  flow 1: A=1    sent=5    SC=4     [drained]",
		"  MaxSC=4",
		"Round 1 (PreviousMaxSC=0, visits=2)",
		"  flow 0: A=1    sent=2    SC=1",
		"  MaxSC=1",
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("round table:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestEngineTrace wires the recorder into a single-server engine run
// and checks the spans: one inject and one hop per packet, grant
// derived from occupancy, records in merge order.
func TestEngineTrace(t *testing.T) {
	et := trace.NewEngineTrace(3, 1, 0)
	cfg := engine.Config{Flows: 2, Scheduler: core.New()}
	et.Wire(&cfg.OnInject, &cfg.OnDeparture)
	e, err := engine.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := e.Inject(flit.Packet{Flow: i % 2, Length: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, drained := e.RunUntilDrained(1000); !drained {
		t.Fatal("engine did not drain")
	}
	recs := et.Records()
	inj, hops := 0, 0
	for i, r := range recs {
		if i > 0 && recs[i-1].Cycle > r.Cycle {
			t.Fatalf("records out of cycle order at %d", i)
		}
		switch r.Kind {
		case trace.KindInject:
			inj++
		case trace.KindHop:
			hops++
			if r.Grant+int64(r.Len)-1+int64(r.CrdWait) != r.Cycle {
				t.Fatalf("hop span inconsistent: grant=%d len=%d crd=%d depart=%d",
					r.Grant, r.Len, r.CrdWait, r.Cycle)
			}
		}
	}
	if inj != 6 || hops != 6 {
		t.Fatalf("got %d injects, %d hops; want 6 each", inj, hops)
	}
	if et.Dropped() != 0 {
		t.Fatalf("dropped %d records", et.Dropped())
	}
	if n := trace.Audit(recs, func(int64, string, int, string, ...any) {}); n != 0 {
		t.Fatalf("%d span violations", n)
	}
}

// TestExportsDeterministic renders the same records twice through both
// exporters and requires byte equality, plus spot-checks line shape.
func TestExportsDeterministic(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1, Flows: 2})
	tr.Inject(1, 0, 3, 1, 2, 5)
	tr.Deliver(flit.Flit{Kind: flit.Tail, PktID: 1, Flow: 1, Dst: 3, Seq: 1}, 2, 4, 12)
	recs := tr.Records()
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if err := trace.WriteJSONL(w, recs, nil); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteChrome(w, recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exports are not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		`{"ev":"inject","pkt":1,"flow":1,"src":0,"dst":3,"len":2,"cycle":5}`,
		`{"ev":"deliver","pkt":1,"flow":1,"dst":3,"inject":9,"cycle":12,"latency":4}`,
		`"name":"process_name"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q in:\n%s", want, out)
		}
	}
}
