package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/harness"
	"repro/internal/rng"
)

func TestBoundFormulas(t *testing.T) {
	if check.ERRFairnessBound(128) != 384 {
		t.Error("ERR bound wrong")
	}
	if check.DRRFairnessBound(128, 128) != 384 {
		t.Error("DRR bound wrong")
	}
	if check.FQFairnessBound(64) != 64 {
		t.Error("FQ bound wrong")
	}
	if check.SurplusBound(128) != 127 {
		t.Error("surplus bound wrong")
	}
}

func TestServiceBounds(t *testing.T) {
	// A window of 2 rounds whose MaxSC(k-1) + MaxSC(k) = 15, m = 8.
	if lo, hi := check.ServiceBounds(2, 15, 8); lo != 2+15-7 || hi != 2+15+7 {
		t.Errorf("bounds (%d,%d), want (10,24)", lo, hi)
	}
	// A window opening a busy period sums MaxSC(0) = 0.
	if lo, hi := check.ServiceBounds(1, 0, 8); lo != 1-7 || hi != 1+7 {
		t.Errorf("bounds (%d,%d), want (-6,8)", lo, hi)
	}
}

// firstInvariant returns the invariant of err's first violation, or
// "" when there is none.
func firstInvariant(err error) string {
	if vs := check.AsViolations(err); len(vs) > 0 {
		return vs[0].Invariant
	}
	return ""
}

func runTraced(t *testing.T, seed uint64, flows, packets, maxLen int) (*core.TraceRecorder, int64) {
	t.Helper()
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(flows, e)
	src := rng.New(seed)
	dist := rng.NewUniform(1, maxLen)
	var m int64
	for i := 0; i < packets; i++ {
		for f := 0; f < flows; f++ {
			l := dist.Draw(src)
			if int64(l) > m {
				m = int64(l)
			}
			d.Arrive(flit.Packet{Flow: f, Length: l})
		}
	}
	d.Drain()
	return rec, m
}

func TestVerifyTraceAcceptsRealRuns(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		rec, m := runTraced(t, seed, 4, 300, 40)
		if err := check.VerifyTrace(rec, m, 4); err != nil {
			t.Fatalf("seed %d: genuine ERR run rejected: %v", seed, err)
		}
	}
}

func TestVerifyTraceEmptyAndValidation(t *testing.T) {
	if err := check.VerifyTrace(&core.TraceRecorder{}, 5, 3); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
	if err := check.VerifyTrace(&core.TraceRecorder{}, 0, 3); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestVerifyTraceCatchesSurplusViolation(t *testing.T) {
	rec := &core.TraceRecorder{}
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 1, 100, 99, false)
	// Claim m=50: surplus 99 > m-1 = 49 must be caught.
	if got := firstInvariant(check.VerifyTrace(rec, 50, 2)); got != check.InvSurplusUpper {
		t.Errorf("first violation %q, want %s", got, check.InvSurplusUpper)
	}
}

func TestVerifyTraceCatchesZeroAllowance(t *testing.T) {
	rec := &core.TraceRecorder{}
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 0, 5, 5, false)
	if got := firstInvariant(check.VerifyTrace(rec, 50, 2)); got != check.InvAllowance {
		t.Errorf("first violation %q, want %s", got, check.InvAllowance)
	}
}

func TestVerifyTraceCatchesNegativeSurplusWithoutDrain(t *testing.T) {
	rec := &core.TraceRecorder{}
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 10, 5, -5, false)
	if got := firstInvariant(check.VerifyTrace(rec, 50, 2)); got != check.InvSurplusLower {
		t.Errorf("first violation %q, want %s", got, check.InvSurplusLower)
	}
}

func TestVerifyTraceCatchesTheorem2Violation(t *testing.T) {
	// A fabricated trace where round 2 serves 9 flits with m = 2:
	// the Theorem 2 upper bound for the window [2,2] is
	// 1 + MaxSC(1) + (m-1) = 1 + 0 + 1 = 2, so N = 9 must be caught.
	// (The surplus in that opportunity is kept at 1 <= m-1 so the
	// Lemma 1 checks pass and the Theorem 2 check does the work.)
	rec := &core.TraceRecorder{}
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 1, 1, 0, false)
	rec.RoundStart(2, 0, 1)
	rec.Opportunity(2, 0, 1, 9, 1, false)
	rec.RoundStart(3, 1, 1)
	rec.Opportunity(3, 0, 1, 1, 0, false)
	if got := firstInvariant(check.VerifyTrace(rec, 2, 2)); got != check.InvTheorem2 {
		t.Errorf("first violation %q, want %s", got, check.InvTheorem2)
	}
}

// TestVerifyTraceTheorem2AtItsBounds runs ERR where Theorem 2 is tight
// at both ends, with m = 8. Flow 0's 8-flit packet on its first
// allowance of 1 sends the upper bound 1 + MaxSC(0) + (m-1) = 8 in
// round 1; its 1-flit packet on round 2's allowance 1 + 7 - 7 = 1
// sends the lower bound 1 + MaxSC(1) - (m-1) = 1. The run is clean;
// one flit more in round 1, or one less in round 2, is reported.
func TestVerifyTraceTheorem2AtItsBounds(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(2, e)
	for _, l := range []int{8, 1, 1} {
		d.Arrive(flit.Packet{Flow: 0, Length: l})
	}
	for i := 0; i < 12; i++ {
		d.Arrive(flit.Packet{Flow: 1, Length: 1})
	}
	d.Drain()
	if err := check.VerifyTrace(rec, 8, 3); err != nil {
		t.Fatalf("run at Theorem 2's bounds reported: %v", err)
	}
	for _, c := range []struct {
		name        string
		event       int // flow 0's opportunity: round 1's is Events[0], round 2's Events[2]
		sent, delta int64
	}{{"upper+1", 0, 8, +1}, {"lower-1", 2, 1, -1}} {
		if ev := rec.Events[c.event]; ev.Flow != 0 || ev.Sent != c.sent {
			t.Fatalf("%s: event %d = %+v, want flow 0 sending %d", c.name, c.event, ev, c.sent)
		}
		rec.Events[c.event].Sent += c.delta
		vs := check.AsViolations(check.VerifyTrace(rec, 8, 3))
		rec.Events[c.event].Sent -= c.delta
		if len(vs) != 1 || vs[0].Invariant != check.InvTheorem2 || vs[0].Flow != 0 {
			t.Errorf("%s: violations %v, want one %s for flow 0", c.name, vs, check.InvTheorem2)
		}
	}
}

// TestVerifyTraceAcrossBusyPeriods is a fuzzer-found regression: the
// scheduler resets its round counter whenever the system drains, so
// two busy periods both contain a "round 1". Merging their per-round
// service sums produced a phantom Theorem 2 violation for a workload
// as simple as one flow draining twice.
func TestVerifyTraceAcrossBusyPeriods(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(1, e)
	for period := 0; period < 3; period++ {
		for i := 0; i < 3; i++ {
			d.Arrive(flit.Packet{Flow: 0, Length: 7})
		}
		d.Drain() // the scheduler goes idle: round numbering restarts
	}
	if err := check.VerifyTrace(rec, 7, 3); err != nil {
		t.Fatalf("phantom violation across busy periods: %v", err)
	}
}

// TestBusyPeriodSegmentation pins where Theorem 2's windows start and
// stop. Each recorded round numbered 1 opens a busy period, even right
// after another single-round one (the round number never decreases
// there), and sums MaxSC(0) = 0 whatever the last period ended with.
// A round the recording stops in is not checked.
func TestBusyPeriodSegmentation(t *testing.T) {
	// Period 1 ends with MaxSC 4. Period 2's round 1 sends 7 with
	// m = 6: above its bound 1 + 0 + 5 = 6, though within the
	// 1 + 4 + 5 = 10 it would get as period 1's successor.
	rec := &core.TraceRecorder{}
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 1, 5, 4, true)
	rec.RoundStart(1, 0, 1)
	rec.Opportunity(1, 0, 2, 7, 5, false)
	vs := check.AsViolations(check.VerifyTrace(rec, 6, 3))
	if len(vs) != 1 || vs[0].Invariant != check.InvTheorem2 {
		t.Errorf("violations %v, want one %s in the second busy period", vs, check.InvTheorem2)
	}

	// The same opportunity in a round that counted two visits: the
	// recording stops mid-round, so no window covers it.
	rec = &core.TraceRecorder{}
	rec.RoundStart(1, 0, 2)
	rec.Opportunity(1, 0, 2, 7, 5, false)
	if err := check.VerifyTrace(rec, 6, 3); err != nil {
		t.Errorf("truncated round checked: %v", err)
	}
}
