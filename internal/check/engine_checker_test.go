package check_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// buildChecked wires a checker into an engine running sch over src,
// returning both plus the wired config (whose callbacks tests may
// drive directly to simulate accounting bugs).
func buildChecked(t *testing.T, flows int, sch any, src traffic.Source) (*engine.Engine, *check.EngineChecker, *engine.Config) {
	t.Helper()
	ecfg := engine.Config{Flows: flows, Scheduler: sch.(sched.Scheduler), Source: src}
	chk := check.NewEngineChecker(flows)
	chk.Wire(&ecfg)
	if errs, ok := sch.(*core.ERR); ok {
		errs.SetTrace(chk)
	}
	e, err := engine.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	chk.Attach(e, sch)
	return e, chk, &ecfg
}

func backloggedSources(flows int, seed uint64) traffic.Source {
	src := rng.New(seed)
	sources := make([]traffic.Source, flows)
	for f := 0; f < flows; f++ {
		sources[f] = traffic.NewBacklogged(f, 4, rng.NewUniform(1, 32), src.Split())
	}
	return traffic.NewMulti(sources...)
}

// TestEngineCheckerCleanERRRun pins the no-false-positives contract: a
// correct ERR run under mixed packet lengths must report zero
// violations, with the Lemma 1 path demonstrably exercised.
func TestEngineCheckerCleanERRRun(t *testing.T) {
	errs := core.New()
	e, chk, _ := buildChecked(t, 4, errs, backloggedSources(4, 7))
	for c := 0; c < 5000; c++ {
		e.Step()
		chk.Tick()
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("clean ERR run reported violations: %v", err)
	}
	if !chk.Lemma1Checked() {
		t.Fatal("no Opportunity events observed; Lemma 1 was never checked")
	}
}

// TestEngineCheckerCatchesSurplusMutation seeds an invariant-breaking
// mutation — the keep-surplus-on-drain ablation, which skips Figure
// 1's surplus reset for drained flows — and requires the checker to
// catch it with a cycle-stamped trace. A flow that overshoots hugely,
// drains, and reactivates after MaxSC has decayed is granted an
// allowance below 1, violating the paper's per-round guarantee.
func TestEngineCheckerCatchesSurplusMutation(t *testing.T) {
	mutant := core.New()
	mutant.SetKeepSurplusOnDrain(true)
	events := []traffic.TraceEvent{{Cycle: 0, Flow: 0, Length: 32}}
	for c := int64(0); c < 400; c++ {
		events = append(events, traffic.TraceEvent{Cycle: c, Flow: 1, Length: 2})
	}
	events = append(events, traffic.TraceEvent{Cycle: 200, Flow: 0, Length: 32})
	e, chk, _ := buildChecked(t, 2, mutant, traffic.NewReplay(events))
	for c := 0; c < 1000; c++ {
		e.Step()
		chk.Tick()
	}
	err := chk.Err()
	if err == nil {
		t.Fatal("the surplus-keeping mutation went undetected")
	}
	var found *check.Violation
	for _, v := range check.AsViolations(err) {
		if v.Invariant == check.InvAllowance || v.Invariant == check.InvSurplusLower {
			found = v
			break
		}
	}
	if found == nil {
		t.Fatalf("no allowance/Lemma-1 violation among: %v", err)
	}
	if found.Cycle < 0 {
		t.Errorf("violation is not cycle-stamped: %+v", found)
	}
	// The trace is the last DefaultTraceEvents events, oldest first,
	// ending with the opportunity that broke the invariant.
	if len(found.Trace) != check.DefaultTraceEvents {
		t.Fatalf("violation carries %d trace events, want the last %d", len(found.Trace), check.DefaultTraceEvents)
	}
	if last, opp := found.Trace[len(found.Trace)-1], fmt.Sprintf("c%-8d opp ", found.Cycle); !strings.HasPrefix(last, opp) {
		t.Errorf("trace ends with %q, want the opportunity at cycle %d", last, found.Cycle)
	}
}

// lyingERR wraps a correct ERR but misreports ActiveList membership —
// the bookkeeping bug class the err.activelist audit exists for.
type lyingERR struct{ *core.ERR }

func (l lyingERR) IsActive(flow int) bool { return false }

func TestEngineCheckerCatchesActiveListMutation(t *testing.T) {
	liar := lyingERR{core.New()}
	e, chk, _ := buildChecked(t, 2, liar, backloggedSources(2, 3))
	for c := 0; c < 50; c++ {
		e.Step()
		chk.Tick()
	}
	err := chk.Err()
	if err == nil {
		t.Fatal("ActiveList misreporting went undetected")
	}
	vs := check.AsViolations(err)
	if vs[0].Invariant != check.InvActiveList {
		t.Fatalf("first violation = %s, want %s", vs[0].Invariant, check.InvActiveList)
	}
	if vs[0].Cycle < 1 {
		t.Errorf("violation is not cycle-stamped: %+v", vs[0])
	}
}

func TestEngineCheckerCatchesConservationBreak(t *testing.T) {
	errs := core.New()
	e, chk, ecfg := buildChecked(t, 2, errs, backloggedSources(2, 5))
	for c := 0; c < 100; c++ {
		e.Step()
		chk.Tick()
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("violations before the seeded break: %v", err)
	}
	// A phantom injection the engine never sees: the checker's flit
	// ledger no longer closes against backlog + served.
	ecfg.OnInject(flit.Packet{Flow: 0, Length: 3}, e.Cycle())
	e.Step()
	chk.Tick()
	err := chk.Err()
	if err == nil {
		t.Fatal("conservation break went undetected")
	}
	if vs := check.AsViolations(err); vs[0].Invariant != check.InvConservation {
		t.Fatalf("first violation = %s, want %s", vs[0].Invariant, check.InvConservation)
	}
}

// TestEngineCheckerLemma1Bounds drives the trace-sink interface
// directly with out-of-bound values, pinning each Lemma 1 clause.
func TestEngineCheckerLemma1Bounds(t *testing.T) {
	chk := check.NewEngineChecker(2)
	// allowance < 1 and surplus > m-1 (no departures seen, so m-1 = -1).
	chk.Opportunity(1, 0, 0, 5, 5, false)
	// surplus < 0 while still backlogged.
	chk.Opportunity(1, 1, 2, 1, -1, false)
	// surplus < 0 for a drained flow is legal: no violation.
	chk.Opportunity(2, 1, 2, 1, -1, true)
	var got []string
	for _, v := range chk.Violations() {
		got = append(got, v.Invariant)
	}
	want := []string{check.InvAllowance, check.InvSurplusUpper, check.InvSurplusLower}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("violations = %v, want %v", got, want)
	}

	// The upper clause at its boundary: after a departure of cost m = 6
	// a surplus of m-1 is legal and a surplus of m is not.
	edge := check.NewEngineChecker(1)
	var ecfg engine.Config
	edge.Wire(&ecfg)
	ecfg.OnDeparture(flit.Packet{Flow: 0, Length: 6}, 10, 6)
	edge.Opportunity(1, 0, 1, 6, 5, false)
	if err := edge.Err(); err != nil {
		t.Fatalf("surplus m-1 after a cost-m departure reported: %v", err)
	}
	edge.Opportunity(2, 0, 1, 7, 6, false)
	vs := check.AsViolations(edge.Err())
	if len(vs) != 1 || vs[0].Invariant != check.InvSurplusUpper {
		t.Fatalf("surplus m after a cost-m departure: violations %v, want one %s", vs, check.InvSurplusUpper)
	}
}

// surplusTee forwards ERR's trace to the checker and records the
// largest surplus count any opportunity ended with.
type surplusTee struct {
	*check.EngineChecker
	max int64
}

func (s *surplusTee) Opportunity(round int64, flow int, allowance, sent, surplus int64, left bool) {
	s.max = max(s.max, surplus)
	s.EngineChecker.Opportunity(round, flow, allowance, sent, surplus, left)
}

// TestEngineCheckerLemma1BoundReached runs a checked ERR engine in
// which Lemma 1's upper bound is tight: each round the flow of 8-flit
// packets starts with an allowance of 1 and overshoots it by m-1 = 7,
// against rivals of 1-flit packets. The run must be clean with its
// largest surplus exactly m-1, so the bound the checker enforces is
// the one ERR reaches, not a looser one.
func TestEngineCheckerLemma1BoundReached(t *testing.T) {
	src := rng.New(4)
	errs := core.New()
	e, chk, _ := buildChecked(t, 3, errs, traffic.NewMulti(
		traffic.NewBacklogged(0, 4, rng.Constant{Length: 8}, src.Split()),
		traffic.NewBacklogged(1, 4, rng.Constant{Length: 1}, src.Split()),
		traffic.NewBacklogged(2, 4, rng.Constant{Length: 1}, src.Split()),
	))
	tee := &surplusTee{EngineChecker: chk}
	errs.SetTrace(tee)
	for c := 0; c < 2000; c++ {
		e.Step()
		chk.Tick()
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("checked run reported violations: %v", err)
	}
	if tee.max != 7 {
		t.Fatalf("largest surplus %d, want m-1 = 7", tee.max)
	}
}

func TestEngineCheckerWatchdogReportsWedge(t *testing.T) {
	errs := core.New()
	// A source that injects once and a scheduler that then starves: we
	// emulate starvation by simply not stepping the engine — the cycle
	// counter must advance, so instead use a permanently stalled flow
	// via the engine's stall model.
	ecfg := engine.Config{
		Flows:     1,
		Scheduler: errs,
		Source:    traffic.NewReplay([]traffic.TraceEvent{{Cycle: 0, Flow: 0, Length: 4}}),
		Stall:     engine.StallFunc(func(flow int) int { return 1 << 30 }),
	}
	chk := check.NewEngineChecker(1)
	chk.Watchdog = check.NewWatchdog(64)
	chk.Wire(&ecfg)
	e, err := engine.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	chk.Attach(e, errs)
	for c := 0; c < 200 && !chk.Watchdog.Tripped(); c++ {
		e.Step()
		chk.Tick()
	}
	if !chk.Watchdog.Tripped() {
		t.Fatal("watchdog never tripped on a permanently stalled flow")
	}
	verr := chk.Err()
	if verr == nil {
		t.Fatal("tripped watchdog recorded no violation")
	}
	if vs := check.AsViolations(verr); vs[0].Invariant != check.InvWatchdog {
		t.Fatalf("first violation = %s, want %s", vs[0].Invariant, check.InvWatchdog)
	}
}
