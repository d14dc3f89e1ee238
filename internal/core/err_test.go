package core_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

func pkt(flow, length int) flit.Packet { return flit.Packet{Flow: flow, Length: length} }

// serveWhileBacklogged serves packets until any flow's queue empties,
// so that every flow is active for the entire measured interval — the
// regime the fairness measure (Definition 1) is stated for.
func serveWhileBacklogged(d *harness.Driver, n int) {
	for {
		for f := 0; f < n; f++ {
			if d.QueueLen(f) == 0 {
				return
			}
		}
		d.ServeOne()
	}
}

// TestFigure1Semantics walks a hand-computed execution in the style
// of the paper's Figure 3 and checks every allowance, sent count and
// surplus count against the recurrences
//
//	A_i(r)  = 1 + MaxSC(r-1) - SC_i(r-1)
//	SC_i(r) = Sent_i(r) - A_i(r).
func TestFigure1Semantics(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(3, e)

	// Backlog three flows with deterministic packet lengths.
	for _, l := range []int{32, 8, 8, 8, 8} {
		d.Arrive(pkt(0, l))
	}
	for _, l := range []int{16, 8, 8, 8, 8} {
		d.Arrive(pkt(1, l))
	}
	for _, l := range []int{12, 20, 4, 4, 4} {
		d.Arrive(pkt(2, l))
	}

	// Round 1: every SC is 0, PreviousMaxSC is 0, so A=1 for all.
	// Each flow sends exactly its head packet.
	// flow0: sent 32, SC 31; flow1: sent 16, SC 15; flow2: sent 12, SC 11.
	// MaxSC(1) = 31.
	// Round 2: A0 = 1+31-31 = 1  -> sends 8,   SC0 = 7
	//          A1 = 1+31-15 = 17 -> sends 8+8+8 = 24 >= 17, SC1 = 7
	//          A2 = 1+31-11 = 21 -> sends 20+4 = 24 >= 21,  SC2 = 3
	// MaxSC(2) = 7.
	// Round 3: A0 = 1+7-7 = 1 -> 8, SC0 = 7
	//          A1 = 1+7-7 = 1 -> 8, SC1 = 7
	//          A2 = 1+7-3 = 5 -> 4+4 = 8 >= 5, SC2 = 3 and flow 2 drains.
	type want struct {
		flow                     int
		allowance, sent, surplus int64
	}
	wants := [][]want{
		{{0, 1, 32, 31}, {1, 1, 16, 15}, {2, 1, 12, 11}},
		{{0, 1, 8, 7}, {1, 17, 24, 7}, {2, 21, 24, 3}},
		{{0, 1, 8, 7}, {1, 1, 8, 7}, {2, 5, 8, 3}},
	}
	// Serve 3 rounds' worth of packets: 3 + 6 + 4 = 13 packets (flow
	// 2's round-3 opportunity spans two 4-flit packets).
	d.ServeN(13)

	for r, ws := range wants {
		events := rec.Opportunities(r)
		if len(events) != len(ws) {
			t.Fatalf("round %d: %d events, want %d: %+v", r+1, len(events), len(ws), events)
		}
		for k, w := range ws {
			got := events[k]
			if got.Flow != w.flow || got.Allowance != w.allowance || got.Sent != w.sent || got.Surplus != w.surplus {
				t.Errorf("round %d slot %d: got flow=%d A=%d sent=%d SC=%d, want flow=%d A=%d sent=%d SC=%d",
					r+1, k, got.Flow, got.Allowance, got.Sent, got.Surplus,
					w.flow, w.allowance, w.sent, w.surplus)
			}
		}
	}
	if rec.Rounds[0].MaxSC != 31 || rec.Rounds[1].MaxSC != 7 {
		t.Errorf("MaxSC per round = %d, %d; want 31, 7",
			rec.Rounds[0].MaxSC, rec.Rounds[1].MaxSC)
	}
	if !rec.Opportunities(2)[2].Left {
		t.Error("flow 2 should have drained in round 3")
	}
}

// TestRoundDefinition_LateJoiner reproduces Figure 2: a flow that
// becomes active after a round has started is not visited until the
// next round.
func TestRoundDefinition_LateJoiner(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(4, e)

	// Flows A=0, B=1, C=2 active at round start.
	for f := 0; f < 3; f++ {
		d.Arrive(pkt(f, 4))
		d.Arrive(pkt(f, 4))
	}
	// Serve flow 0's opportunity (1 packet: A=1, sent=4).
	d.ServeOne()
	// Flow D joins mid-round.
	d.Arrive(pkt(3, 4))
	// Finish the round: flows 1 and 2.
	d.ServeOne()
	d.ServeOne()
	r1 := rec.Opportunities(0)
	if len(r1) != 3 {
		t.Fatalf("round 1 served %d flows, want 3 (D must wait)", len(r1))
	}
	for i, e := range r1 {
		if e.Flow != i {
			t.Errorf("round 1 order: slot %d = flow %d", i, e.Flow)
		}
	}
	// Round 2 must include D.
	d.ServeN(4)
	r2 := rec.Opportunities(1)
	found := false
	for _, e := range r2 {
		if e.Flow == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("flow D not served in round 2: %+v", r2)
	}
}

// TestLemma1_SurplusBounds checks 0 <= SC_i(r) <= m-1 after every
// service opportunity, for random backlogged workloads.
func TestLemma1_SurplusBounds(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		e := core.New()
		rec := &core.TraceRecorder{}
		e.SetTrace(rec)
		const n = 5
		d := harness.New(n, e)
		src := rng.New(seed)
		dist := rng.NewUniform(1, 37)
		m := 0
		for i := 0; i < 400; i++ {
			for f := 0; f < n; f++ {
				l := dist.Draw(src)
				if l > m {
					m = l
				}
				d.Arrive(pkt(f, l))
			}
		}
		d.Drain()
		// The recorded surplus is Sent - A before the drain reset, and
		// obeys Lemma 1's bounds but for a flow that drained, which
		// may stop short of its allowance.
		if err := check.VerifyTrace(rec, int64(m), 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTheorem2_ServiceBounds verifies, for continuously backlogged
// flows, that the flits N sent by a flow over any window of n
// consecutive rounds satisfy
//
//	n + Σ MaxSC(r) - (m-1)  <=  N  <=  n + Σ MaxSC(r) + (m-1)
//
// with the sum over r = k-1 .. k+n-2 (Theorem 2).
func TestTheorem2_ServiceBounds(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	const flows = 4
	d := harness.New(flows, e)
	src := rng.New(77)
	dist := rng.NewUniform(1, 25)
	m := 0
	for i := 0; i < 3000; i++ {
		for f := 0; f < flows; f++ {
			l := dist.Draw(src)
			if l > m {
				m = l
			}
			d.Arrive(pkt(f, l))
		}
	}
	// Serve a lot, but keep every queue backlogged.
	d.ServeN(6000)
	// The recording stops mid-round, which VerifyTrace leaves out.
	if err := check.VerifyTrace(rec, int64(m), 4); err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds) < 100 {
		t.Fatalf("only %d rounds recorded; the windows checked too few", len(rec.Rounds))
	}
}

// TestTheorem3_FairnessBound checks FM < 3m on randomized backlogged
// workloads across seeds, using the exact interval-fairness tracker.
func TestTheorem3_FairnessBound(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		e := core.New()
		const n = 6
		d := harness.New(n, e)
		ft := metrics.NewFairnessTracker(n)
		d.OnServe = func(p flit.Packet, cost int64) { ft.Serve(p.Flow, int64(p.Length)) }
		src := rng.New(seed * 1000)
		dists := []rng.LengthDist{
			rng.NewUniform(1, 64),
			rng.NewUniform(1, 128),
			rng.NewTruncExp(0.2, 1, 64),
			rng.Bimodal{Short: 1, Long: 100, PShort: 0.8},
			rng.NewUniform(40, 60),
			rng.Constant{Length: 13},
		}
		m := 0
		for i := 0; i < 1500; i++ {
			for f := 0; f < n; f++ {
				l := dists[f].Draw(src)
				if l > m {
					m = l
				}
				d.Arrive(pkt(f, l))
			}
		}
		// FM is defined over flows active during the interval, so stop
		// measuring the moment any queue drains.
		serveWhileBacklogged(d, n)
		if bound := check.ERRFairnessBound(int64(m)); ft.FM() >= bound {
			t.Errorf("seed %d: FM = %d >= 3m = %d", seed, ft.FM(), bound)
		}
	}
}

// TestERRFairWithHeterogeneousLengths mirrors Figure 4: one flow with
// double-length packets gets no extra throughput.
func TestERRFairWithHeterogeneousLengths(t *testing.T) {
	d := harness.New(2, core.New())
	src := rng.New(3)
	l64 := rng.NewUniform(1, 64)
	l128 := rng.NewUniform(1, 128)
	for i := 0; i < 3000; i++ {
		d.Arrive(pkt(0, l64.Draw(src)))
		d.Arrive(pkt(1, l128.Draw(src)))
	}
	serveWhileBacklogged(d, 2)
	r := float64(d.Served(1)) / float64(d.Served(0))
	if r < 0.98 || r > 1.02 {
		t.Errorf("ERR throughput ratio %.3f, want ~1.0", r)
	}
}

// TestERRNotLengthAware asserts the compile-level property the paper
// hinges on: ERR must not implement the length side-channel.
func TestERRNotLengthAware(t *testing.T) {
	var s sched.Scheduler = core.New()
	if _, ok := s.(sched.LengthAware); ok {
		t.Fatal("ERR must not implement sched.LengthAware")
	}
}

// TestERROccupancyCosts runs ERR in wormhole occupancy mode: each
// packet's billed cost exceeds its length by a flow-dependent stall.
// Fairness in occupancy units must stay bounded by 3 * maxCost even
// though lengths alone would be skewed.
func TestERROccupancyCosts(t *testing.T) {
	e := core.New()
	const n = 3
	d := harness.New(n, e)
	occ := metrics.NewFairnessTracker(n)
	maxCost := int64(0)
	d.CostFn = func(p flit.Packet) int64 {
		// Flow 2 suffers heavy downstream congestion: 3x occupancy.
		c := int64(p.Length)
		if p.Flow == 2 {
			c *= 3
		}
		return c
	}
	d.OnServe = func(p flit.Packet, cost int64) {
		occ.Serve(p.Flow, cost)
		if cost > maxCost {
			maxCost = cost
		}
	}
	src := rng.New(5)
	dist := rng.NewUniform(1, 32)
	for i := 0; i < 3000; i++ {
		for f := 0; f < n; f++ {
			d.Arrive(pkt(f, dist.Draw(src)))
		}
	}
	serveWhileBacklogged(d, n)
	if bound := check.ERRFairnessBound(maxCost); occ.FM() >= bound {
		t.Errorf("occupancy FM = %d >= 3*maxCost = %d", occ.FM(), bound)
	}
	// And flow 2 must have been *throttled* in flits: it pays for its
	// congestion, roughly 3x fewer flits.
	r := float64(d.Served(0)) / float64(d.Served(2))
	if r < 2.5 || r > 3.5 {
		t.Errorf("congested flow flit ratio %.2f, want ~3", r)
	}
}

func TestWeightedERRProportionalShares(t *testing.T) {
	weights := []int64{1, 2, 4}
	e := core.NewWeighted(func(f int) int64 { return weights[f] })
	d := harness.New(3, e)
	src := rng.New(8)
	dist := rng.NewUniform(1, 32)
	// The weight-4 flow is served 4x as fast, so give it 4x the
	// packets to keep every flow backlogged for the whole measurement.
	for i := 0; i < 4000; i++ {
		for f := 0; f < 3; f++ {
			for k := int64(0); k < weights[f]; k++ {
				d.Arrive(pkt(f, dist.Draw(src)))
			}
		}
	}
	serveWhileBacklogged(d, 3)
	s0 := float64(d.Served(0))
	if r := float64(d.Served(1)) / s0; r < 1.95 || r > 2.05 {
		t.Errorf("weight-2 flow ratio %.3f, want ~2", r)
	}
	if r := float64(d.Served(2)) / s0; r < 3.9 || r > 4.1 {
		t.Errorf("weight-4 flow ratio %.3f, want ~4", r)
	}
}

func TestWeightedERRUnitWeightsMatchUnweighted(t *testing.T) {
	a := harness.New(3, core.New())
	b := harness.New(3, core.NewWeighted(func(int) int64 { return 1 }))
	src := rng.New(123)
	dist := rng.NewUniform(1, 20)
	type arrival struct{ f, l int }
	var arrivals []arrival
	for i := 0; i < 600; i++ {
		arrivals = append(arrivals, arrival{src.Intn(3), dist.Draw(src)})
	}
	for _, ar := range arrivals {
		a.Arrive(pkt(ar.f, ar.l))
		b.Arrive(pkt(ar.f, ar.l))
	}
	pa := a.Drain()
	pb := b.Drain()
	for i := range pa {
		if pa[i].Flow != pb[i].Flow || pa[i].Length != pb[i].Length {
			t.Fatalf("weighted(1) diverged from unweighted at packet %d", i)
		}
	}
}

// TestIdleReset: after the system drains completely, a fresh arrival
// starts from clean round state (allowance 1 + 0 - 0).
func TestIdleReset(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(2, e)
	d.Arrive(pkt(0, 50)) // builds a large MaxSC
	d.Arrive(pkt(1, 2))
	d.Drain()
	if e.Round() != 0 {
		t.Errorf("Round = %d after idle, want 0", e.Round())
	}
	d.Arrive(pkt(1, 5))
	d.ServeOne()
	last := rec.Events[len(rec.Events)-1]
	if last.Allowance != 1 {
		t.Errorf("first allowance after idle = %d, want 1", last.Allowance)
	}
}

// TestTraceRecorderPairsAcrossIdleResets records three busy periods
// of two flows, the last cut in the middle of its first round. ERR
// numbers rounds from 1 again after each idle reset; the recorder must
// still give each round only its own opportunities and MaxSC.
func TestTraceRecorderPairsAcrossIdleResets(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(2, e)
	d.Arrive(pkt(0, 4))
	d.Arrive(pkt(0, 1))
	d.Arrive(pkt(1, 1))
	d.Drain()
	d.Arrive(pkt(0, 1))
	d.Arrive(pkt(1, 5))
	d.Drain()
	d.Arrive(pkt(0, 2))
	d.Arrive(pkt(0, 1))
	d.Arrive(pkt(1, 1))
	d.ServeOne() // flow 0's opportunity ends; flow 1's is still to come

	type round struct {
		round    int64
		flows    []int
		maxSC    int64
		complete bool
	}
	want := []round{
		{1, []int{0, 1}, 3, true},
		{2, []int{0}, 0, true},
		{1, []int{0, 1}, 4, true},
		{1, []int{0}, 1, false},
	}
	var got []round
	for i, r := range rec.Rounds {
		g := round{r.Round, nil, r.MaxSC, r.Complete()}
		for _, op := range rec.Opportunities(i) {
			if op.Round != r.Round {
				t.Errorf("recorded round %d holds an opportunity of round %d", i, op.Round)
			}
			g.flows = append(g.flows, op.Flow)
		}
		got = append(got, g)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds %+v, want %+v", got, want)
	}
}

// TestERRArrivalDuringService: a packet arriving for the flow in
// service must not double-insert the flow into the active list.
func TestERRArrivalDuringService(t *testing.T) {
	e := core.New()
	d := harness.New(2, e)
	d.Arrive(pkt(0, 3))
	d.Arrive(pkt(1, 3))
	// Serve flow 0 while "concurrently" adding more of its packets.
	// The harness is synchronous, so emulate by arriving right before
	// each ServeOne; the invariant is that Drain terminates and every
	// packet is served exactly once.
	d.Arrive(pkt(0, 2))
	served := d.Drain()
	if len(served) != 3 {
		t.Fatalf("served %d packets, want 3", len(served))
	}
	if e.ActiveFlows() != 0 || e.CurrentFlow() != -1 {
		t.Error("scheduler state not idle after drain")
	}
}

// TestERRStarvationFreedom: even a flow with pathological surplus
// keeps receiving at least one packet per round (the "+1" in the
// allowance).
func TestERRStarvationFreedom(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(2, e)
	// Flow 0 sends maximal packets, flow 1 minimal ones.
	for i := 0; i < 200; i++ {
		d.Arrive(pkt(0, 100))
		d.Arrive(pkt(1, 1))
	}
	d.ServeN(250)
	// Flow 0 must have an opportunity in every round; the last may be
	// in progress.
	for i, r := range rec.Rounds {
		served := slices.ContainsFunc(rec.Opportunities(i), func(ev core.RoundEvent) bool { return ev.Flow == 0 })
		if r.Complete() && !served {
			t.Fatalf("flow 0 starved in round %d", r.Round)
		}
	}
}

// TestAblationAllowancePlusOne demonstrates why the "+1" exists: with
// A = MaxSC - SC, the flow with the maximum surplus would receive a
// zero allowance. ERR's invariant A >= 1 must hold in every recorded
// opportunity.
func TestAblationAllowancePlusOne(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(3, e)
	src := rng.New(55)
	dist := rng.NewUniform(1, 50)
	for i := 0; i < 500; i++ {
		for f := 0; f < 3; f++ {
			d.Arrive(pkt(f, dist.Draw(src)))
		}
	}
	d.Drain()
	for _, ev := range rec.Events {
		if ev.Allowance < 1 {
			t.Fatalf("allowance %d < 1 for flow %d in round %d", ev.Allowance, ev.Flow, ev.Round)
		}
	}
}

func TestTraceTableRendering(t *testing.T) {
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(2, e)
	d.Arrive(pkt(0, 4))
	d.Arrive(pkt(1, 2))
	d.Drain()
	var sb strings.Builder
	if err := trace.WriteRecorderTable(&sb, rec); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Round 1", "flow 0", "flow 1", "MaxSC=3", "[drained]"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace table missing %q:\n%s", want, out)
		}
	}
}

func TestERRPanicsOnBadUse(t *testing.T) {
	e := core.New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OnPacketDone without service did not panic")
			}
		}()
		e.OnPacketDone(0, 5, false)
	}()

	// Once its only flow drains, the ActiveList is empty again and
	// there is no flow to grant.
	e.OnArrival(3, true)
	e.OnPacketDone(e.NextFlow(), 5, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextFlow with no active flow did not panic")
			}
		}()
		e.NextFlow()
	}()

	e2 := core.NewWeighted(func(int) int64 { return 0 })
	e2.OnArrival(0, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("weight < 1 did not panic")
			}
		}()
		e2.NextFlow()
	}()
}

// Property-style check across many seeds: ERR never selects an empty
// flow and serves every packet exactly once under random interleaved
// arrivals.
func TestERRWorkConservation(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		d := harness.New(5, core.New())
		src := rng.New(seed)
		dist := rng.NewUniform(1, 40)
		arrived, served := 0, 0
		for step := 0; step < 3000; step++ {
			if src.Bernoulli(0.55) || d.Backlog() == 0 {
				d.Arrive(pkt(src.Intn(5), dist.Draw(src)))
				arrived++
			} else {
				d.ServeOne()
				served++
			}
		}
		served += len(d.Drain())
		if served != arrived {
			t.Fatalf("seed %d: arrived %d != served %d", seed, arrived, served)
		}
	}
}
