package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bounds"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// The quiet-source oracle: every configuration runs twice, once with
// its Source bare (the engine skips polls the source promised would be
// empty) and once behind onlyArrivals, which hides traffic.Quieter so
// the engine polls every cycle. Everything observable must match.

// onlyArrivals exposes nothing of a Source but Arrivals.
type onlyArrivals struct{ inner traffic.Source }

func (o onlyArrivals) Arrivals(cycle int64, q traffic.QueueView) []flit.Packet {
	return o.inner.Arrivals(cycle, q)
}

const oracleFlows = 4

// oracleDiscs are the disciplines under test; FBRR runs in flit mode.
var oracleDiscs = []struct {
	name string
	pkt  func() sched.Scheduler
	flit func() sched.FlitScheduler
}{
	{name: "ERR", pkt: func() sched.Scheduler { return core.New() }},
	{name: "ERR-weighted", pkt: func() sched.Scheduler {
		return core.NewWeighted(func(f int) int64 { return int64(f%3 + 1) })
	}},
	{name: "DRR", pkt: func() sched.Scheduler { return sched.NewDRR(8, nil) }},
	{name: "DRR-OPT", pkt: func() sched.Scheduler { return sched.NewOptDRR([]int64{8, 16, 4, 12}) }},
	{name: "PBRR", pkt: func() sched.Scheduler { return sched.NewPBRR() }},
	{name: "FCFS", pkt: func() sched.Scheduler { return sched.NewFCFS() }},
	{name: "WRR", pkt: func() sched.Scheduler { return sched.NewWRR(func(f int) int { return f%2 + 1 }) }},
	{name: "IWRR", pkt: func() sched.Scheduler { return sched.NewIWRR(func(f int) int { return f%3 + 1 }) }},
	{name: "SCFQ", pkt: func() sched.Scheduler { return sched.NewSCFQ(nil) }},
	{name: "WFQ", pkt: func() sched.Scheduler { return sched.NewWFQ(func(f int) float64 { return float64(f + 1) }) }},
	{name: "STFQ", pkt: func() sched.Scheduler { return sched.NewSTFQ(nil) }},
	{name: "VirtualClock", pkt: func() sched.Scheduler { return sched.NewVirtualClock(nil) }},
	{name: "FBRR", flit: func() sched.FlitScheduler { return sched.NewFBRR() }},
}

// decisionLog wraps a scheduler to record its NextFlow answers,
// forwarding the optional interfaces the engine type-asserts exactly
// when the wrapped scheduler has them.
type decisionLog struct {
	sched.Scheduler
	log *[]int
}

func (d decisionLog) NextFlow() int {
	f := d.Scheduler.NextFlow()
	*d.log = append(*d.log, f)
	return f
}

type lengthLog struct {
	decisionLog
	la sched.LengthAware
}

func (l lengthLog) OnArrivalLength(flow, length int) { l.la.OnArrivalLength(flow, length) }

type clockLog struct {
	lengthLog
	ca sched.ClockAware
}

func (c clockLog) SetNow(cycle int64) { c.ca.SetNow(cycle) }

func logDecisions(s sched.Scheduler, log *[]int) sched.Scheduler {
	d := decisionLog{s, log}
	la, isLA := s.(sched.LengthAware)
	ca, isCA := s.(sched.ClockAware)
	switch {
	case isLA && isCA:
		return clockLog{lengthLog{d, la}, ca}
	case isLA:
		return lengthLog{d, la}
	case isCA:
		panic("clock-aware scheduler without lengths: extend logDecisions")
	}
	return d
}

type flitDecisionLog struct {
	sched.FlitScheduler
	log *[]int
}

func (d flitDecisionLog) NextFlow() int {
	f := d.FlitScheduler.NextFlow()
	*d.log = append(*d.log, f)
	return f
}

// cycleStall stalls flow 1 during the first 12 cycles of every 97.
type cycleStall struct{}

func (cycleStall) FlitStall(flow int, cycle int64) int {
	if flow == 1 && cycle%97 < 12 {
		return 2
	}
	return 0
}

// Stall models: none, a stateful random StallFunc, one that reads the
// cycle.
const (
	stallNone = iota
	stallRandom
	stallCycle
	numStalls
)

// Source shapes.
const (
	srcMulti         = iota // one Backlogged per flow
	srcSingle               // one Backlogged flow, the rest idle
	srcWindow               // a Window, closing mid-run, over Backlogged flows and a Bernoulli one
	srcMixed                // Backlogged flows next to a Bernoulli one (never quiet)
	srcMirror               // Backlogged flows and a mirror, whose promise a growing queue voids
	srcWindowQuiet          // a Window, closing mid-run, over Backlogged flows only (fig5's shape)
	srcMirrorAmong          // a mirror between Backlogged flows, into a flow one of them tops up
	srcReinjectOther        // Backlogged flows; OnDeparture re-injects into another flow
	numSources
)

// mirror keeps flow To's queue as long as flow From's. Unlike
// Backlogged, an injection (a queue growing) can void its promise.
type mirror struct {
	From, To int
	Dist     rng.LengthDist
	Src      *rng.Source
	buf      []flit.Packet
}

func (m *mirror) Arrivals(_ int64, q traffic.QueueView) []flit.Packet {
	m.buf = m.buf[:0]
	for i := q.QueueLen(m.To); i < q.QueueLen(m.From); i++ {
		m.buf = append(m.buf, flit.Packet{Flow: m.To, Length: m.Dist.Draw(m.Src)})
	}
	return m.buf
}

func (m *mirror) QuietAfter(_ int64, q traffic.QueueView) bool {
	return q.QueueLen(m.To) >= q.QueueLen(m.From)
}

// oracleCase is one configuration of the differential run.
type oracleCase struct {
	disc, stall, source int
	seed                uint64
	// script drives the run: each byte runs 1-64 cycles (low six
	// bits); bit 6 injects a packet from outside between runs, bit 7
	// toggles re-injection from OnDeparture.
	script []byte
	// observe wires an obs.Collector and a bounds.Checker.
	observe bool
}

func (c oracleCase) String() string {
	return fmt.Sprintf("%s/stall%d/source%d/seed%d/observe=%v", oracleDiscs[c.disc].name, c.stall, c.source, c.seed, c.observe)
}

// oracleRun is everything one run exposes.
type oracleRun struct {
	service    []int      // per cycle: flow, -1 idle, -2 stalled
	departures [][3]int64 // cycle, flow, occupancy
	injects    [][3]int64 // cycle, flow, length
	decisions  []int
	delays     []float64 // count, mean, then per-flow count and mean
	snapshot   obs.Snapshot
	bounds     []bounds.FlowReport
	violations int
	cycle      int64
	backlog    int
	polls      int64
}

func (c oracleCase) newSource(r *rng.Source) traffic.Source {
	dist := rng.NewUniform(1, 1+r.Intn(12))
	backlogged := func(f int) traffic.Source {
		return traffic.NewBacklogged(f, 1+r.Intn(4), dist, r.Split())
	}
	all := func() traffic.Source {
		var ss []traffic.Source
		for f := 0; f < oracleFlows; f++ {
			ss = append(ss, backlogged(f))
		}
		return traffic.NewMulti(ss...)
	}
	switch c.source {
	case srcSingle:
		return backlogged(r.Intn(oracleFlows))
	case srcWindow:
		from := r.Int63n(100)
		inner := traffic.NewMulti(backlogged(0), backlogged(1), backlogged(2), traffic.NewBernoulli(3, 0.5, dist, r.Split()))
		return traffic.NewWindow(inner, from, from+r.Int63n(600))
	case srcMixed:
		return traffic.NewMulti(backlogged(0), traffic.NewBernoulli(1, 0.05, dist, r.Split()), backlogged(2))
	case srcMirror:
		return traffic.NewMulti(backlogged(0), backlogged(1), backlogged(2), &mirror{From: 0, To: 3, Dist: dist, Src: r.Split()})
	case srcWindowQuiet:
		from := r.Int63n(100)
		return traffic.NewWindow(all(), from, from+r.Int63n(600))
	case srcMirrorAmong:
		return traffic.NewMulti(backlogged(0), &mirror{From: 0, To: 2, Dist: dist, Src: r.Split()}, backlogged(1), backlogged(2), backlogged(3))
	}
	return all()
}

// run executes the case with the source bare or hidden behind
// onlyArrivals.
func (c oracleCase) run(t testing.TB, hide bool) oracleRun {
	t.Helper()
	r := rng.New(c.seed)
	var out oracleRun
	var src traffic.Source = c.newSource(r.Split())
	if hide {
		src = onlyArrivals{src}
	}
	stallSrc := r.Split()
	cfg := engine.Config{
		Flows:                  oracleFlows,
		Source:                 src,
		AllowLengthAwareStalls: true,
		OnFlit:                 func(_ int64, flow int) { out.service = append(out.service, flow) },
		OnIdle:                 func(int64) { out.service = append(out.service, -1) },
		OnStall:                func(int64, int) { out.service = append(out.service, -2) },
	}
	switch c.stall {
	case stallRandom:
		cfg.Stall = engine.StallFunc(func(int) int {
			if stallSrc.Bernoulli(0.1) {
				return 1 + stallSrc.Intn(3)
			}
			return 0
		})
	case stallCycle:
		cfg.Stall = cycleStall{}
	}
	d := oracleDiscs[c.disc]
	if d.flit != nil {
		cfg.FlitSched = flitDecisionLog{d.flit(), &out.decisions}
	} else {
		cfg.Scheduler = logDecisions(d.pkt(), &out.decisions)
	}
	delays := metrics.NewDelayStats(oracleFlows)
	var e *engine.Engine
	reinject := false
	reinjectSrc := r.Split()
	cfg.OnDeparture = func(p flit.Packet, cycle, occ int64) {
		out.departures = append(out.departures, [3]int64{cycle, int64(p.Flow), occ})
		delays.Departure(p, cycle)
		if reinject && reinjectSrc.Bernoulli(0.3) {
			e.Inject(flit.Packet{Flow: reinjectSrc.Intn(oracleFlows), Length: 1 + reinjectSrc.Intn(6)})
		}
		if c.source == srcReinjectOther && reinjectSrc.Bernoulli(0.3) {
			other := (p.Flow + 1 + reinjectSrc.Intn(oracleFlows-1)) % oracleFlows
			e.Inject(flit.Packet{Flow: other, Length: 1 + reinjectSrc.Intn(6)})
		}
	}
	cfg.OnInject = func(p flit.Packet, cycle int64) {
		out.injects = append(out.injects, [3]int64{cycle, int64(p.Flow), int64(p.Length)})
	}
	var reg *obs.Registry
	var bc *bounds.Checker
	var rec *check.Recorder
	if c.observe {
		reg = obs.NewRegistry()
		obs.NewCollector(reg, oracleFlows).Wire(&cfg)
		bcfg := bounds.Config{C: 1, Flows: make([]bounds.FlowSpec, oracleFlows)}
		for f := range bcfg.Flows {
			bcfg.Flows[f] = bounds.FlowSpec{Weight: 1, Quantum: 12, LMin: 1, LMax: 12,
				Arrival: bounds.TokenBucket{Sigma: 12, Rho: 0.2}}
		}
		rec = check.NewRecorder()
		var err error
		if bc, err = bounds.NewChecker(bcfg, "ERR", rec); err != nil {
			t.Fatal(err)
		}
		bc.Wire(&cfg)
	}
	e, err := engine.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injectSrc := r.Split()
	for _, b := range c.script {
		if b&0x80 != 0 {
			reinject = !reinject
		}
		if b&0x40 != 0 {
			e.Inject(flit.Packet{Flow: injectSrc.Intn(oracleFlows), Length: 1 + injectSrc.Intn(8)})
		}
		e.Run(int64(b&0x3F) + 1)
	}
	out.delays = []float64{float64(delays.Count()), delays.Mean()}
	for f := 0; f < oracleFlows; f++ {
		out.delays = append(out.delays, float64(delays.CountOf(f)), delays.MeanOf(f))
	}
	if c.observe {
		out.snapshot = reg.Snapshot()
		out.bounds = bc.Report()
		out.violations = rec.Count()
	}
	out.cycle, out.backlog, out.polls = e.Cycle(), e.Backlog(), e.SourcePolls()
	return out
}

// check runs the case both ways and fails on any difference; it
// returns the quiet run's and the per-cycle run's poll counts.
func (c oracleCase) check(t testing.TB) (quiet, perCycle int64) {
	t.Helper()
	a, b := c.run(t, false), c.run(t, true)
	if b.polls != b.cycle {
		t.Fatalf("%v: hidden source polled %d times in %d cycles", c, b.polls, b.cycle)
	}
	if a.polls > b.polls {
		t.Fatalf("%v: quiet run polled more (%d) than the per-cycle run (%d)", c, a.polls, b.polls)
	}
	quiet, perCycle = a.polls, b.polls
	a.polls, b.polls = 0, 0
	if !reflect.DeepEqual(a, b) {
		for _, f := range []struct {
			name string
			x, y any
		}{
			{"service", a.service, b.service}, {"departures", a.departures, b.departures},
			{"injections", a.injects, b.injects}, {"decisions", a.decisions, b.decisions},
			{"delays", a.delays, b.delays}, {"collector", a.snapshot, b.snapshot},
			{"bounds", a.bounds, b.bounds}, {"violations", a.violations, b.violations},
		} {
			if !reflect.DeepEqual(f.x, f.y) {
				t.Fatalf("%v (script %x): %s differ between the quiet and the per-cycle run", c, c.script, f.name)
			}
		}
		t.Fatalf("%v: end state differs: quiet %+v per-cycle %+v", c, [2]int64{a.cycle, int64(a.backlog)}, [2]int64{b.cycle, int64(b.backlog)})
	}
	return quiet, perCycle
}

// TestQuietSourceMatchesPerCyclePolling runs every discipline under
// every stall model and source shape, with and without observers,
// across several Run calls with external and OnDeparture injections.
func TestQuietSourceMatchesPerCyclePolling(t *testing.T) {
	script := []byte{0x3F, 0x45, 0x80, 0x3F, 0x21, 0x7F, 0x13, 0x80, 0x3F, 0x3F, 0x3F, 0x01, 0x3F}
	var quiet, perCycle int64
	for disc := range oracleDiscs {
		for stall := 0; stall < numStalls; stall++ {
			for source := 0; source < numSources; source++ {
				for _, observe := range []bool{false, true} {
					c := oracleCase{disc: disc, stall: stall, source: source, seed: uint64(disc*100 + stall*10 + source), script: script, observe: observe}
					q, p := c.check(t)
					if source == srcMulti {
						quiet += q
						perCycle += p
					}
				}
			}
		}
	}
	// Not a tautology: the backlogged cases must actually skip polls.
	if quiet > perCycle/2 {
		t.Errorf("quiet backlogged runs polled %d of %d cycles; the skip is barely taking effect", quiet, perCycle)
	}
}

// FuzzEngineQuietOracle widens the differential run to random
// disciplines, stall models, sources (depths and lengths drawn from
// the seed), Run horizons that split packets across calls, external
// injections between runs and re-injection from OnDeparture.
func FuzzEngineQuietOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint64(1), false, []byte{0x3F, 0x3F})
	f.Add(uint8(2), uint8(1), uint8(2), uint64(7), true, []byte{0x45, 0x80, 0x05, 0x7F, 0x02})
	f.Add(uint8(12), uint8(2), uint8(3), uint64(3), false, []byte{0xC1, 0x41, 0x3F})
	f.Add(uint8(11), uint8(2), uint8(1), uint64(9), true, []byte{0x00, 0x80, 0x00, 0x40, 0x3F})
	f.Add(uint8(5), uint8(0), uint8(4), uint64(11), false, []byte{0x41, 0x41, 0xC3, 0x3F})
	f.Add(uint8(0), uint8(0), uint8(5), uint64(13), false, []byte{0x45, 0x3F, 0x3F})
	f.Add(uint8(3), uint8(1), uint8(6), uint64(17), true, []byte{0x3F, 0x41, 0x3F})
	f.Add(uint8(12), uint8(0), uint8(7), uint64(19), false, []byte{0x3F, 0x7F, 0x3F})
	f.Fuzz(func(t *testing.T, disc, stall, source uint8, seed uint64, observe bool, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		c := oracleCase{
			disc:    int(disc) % len(oracleDiscs),
			stall:   int(stall) % numStalls,
			source:  int(source) % numSources,
			seed:    seed,
			script:  script,
			observe: observe,
		}
		c.check(t)
	})
}

// TestSourcePollsFollowDepartures pins the saved work on fixed
// backlogged runs: the source is polled at cycle 0 and on the cycle
// after each departure, nowhere else. A silent fallback to polling
// every cycle fails here.
func TestSourcePollsFollowDepartures(t *testing.T) {
	const cycles = 20000
	backlogged := func() traffic.Source {
		src := rng.New(5)
		var ss []traffic.Source
		for f := 0; f < 3; f++ {
			ss = append(ss, traffic.NewBacklogged(f, 4, rng.NewUniform(1, 16), src.Split()))
		}
		return traffic.NewMulti(ss...)
	}
	for _, cfg := range []engine.Config{
		{Flows: 3, Scheduler: core.New(), Source: backlogged()},
		{Flows: 3, FlitSched: sched.NewFBRR(), Source: backlogged()},
	} {
		var deps int64
		cfg.OnDeparture = func(_ flit.Packet, cycle, _ int64) {
			if cycle+1 < cycles {
				deps++
			}
		}
		e, err := engine.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(cycles)
		if got, want := e.SourcePolls(), 1+deps; got != want || deps < cycles/16 {
			t.Errorf("packet mode %v: %d polls, want 1 + %d departures", cfg.Scheduler != nil, got, deps)
		}
	}
	// A source without the promise is the per-cycle oracle.
	e, err := engine.NewEngine(engine.Config{Flows: 1, Scheduler: core.New(),
		Source: traffic.NewBernoulli(0, 0.1, rng.NewUniform(1, 4), rng.New(1))})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(cycles)
	if got := e.SourcePolls(); got != cycles {
		t.Errorf("Bernoulli source polled %d times in %d cycles", got, cycles)
	}
}
