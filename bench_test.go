package repro

// Repository-level benchmarks: one per table/figure of the paper
// (regenerating a scaled-down instance of each artifact per
// iteration), the Theorem 1 work-complexity scaling evidence, and
// throughput benchmarks of the simulation substrates.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/damq"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/min"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

// --- one bench per table/figure ---

func BenchmarkTable1(b *testing.B) {
	p := experiments.DefaultTable1Params()
	p.Fig4.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig4(b *testing.B, panel string) {
	p := experiments.DefaultFig4Params()
	p.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(p, panel)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4a(b *testing.B) { benchFig4(b, "a") }
func BenchmarkFig4b(b *testing.B) { benchFig4(b, "b") }
func BenchmarkFig4c(b *testing.B) { benchFig4(b, "c") }
func BenchmarkFig4d(b *testing.B) { benchFig4(b, "d") }

func benchFig5(b *testing.B, panel string) {
	p := experiments.DefaultFig5Params()
	p.BurstCycles = 5_000
	p.Intensities = []float64{1.0, 1.15, 1.3}
	p.Repeats = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(p, panel)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5a(b *testing.B) { benchFig5(b, "a") }
func BenchmarkFig5b(b *testing.B) { benchFig5(b, "b") }

func benchFig6(b *testing.B, workers int) {
	p := experiments.DefaultFig6Params()
	p.Cycles = 100_000
	p.Intervals = 1_000
	p.MaxFlows = 6
	p.Workers = workers
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 is the serial baseline; BenchmarkFig6Parallel runs
// the identical workload through the 4-worker pool. The two render
// byte-identical artifacts (see TestParallelMatchesSerial); the delta
// is pure wall-clock.
func BenchmarkFig6(b *testing.B)         { benchFig6(b, 1) }
func BenchmarkFig6Parallel(b *testing.B) { benchFig6(b, 4) }

// Figure 3 is a trace artifact: benchmark regenerating it.
func BenchmarkFig3Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := core.New()
		rec := &core.TraceRecorder{}
		e.SetTrace(rec)
		d := harness.New(3, e)
		for _, l := range []int{32, 8, 8, 8, 8} {
			d.Arrive(flit.Packet{Flow: 0, Length: l})
		}
		for _, l := range []int{16, 8, 8, 8, 8} {
			d.Arrive(flit.Packet{Flow: 1, Length: l})
		}
		for _, l := range []int{12, 20, 4, 4, 4} {
			d.Arrive(flit.Packet{Flow: 2, Length: l})
		}
		d.Drain()
		if err := trace.WriteRecorderTable(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md design-choice experiments) ---

func BenchmarkAblationOccupancy(b *testing.B) {
	p := experiments.DefaultAblationOccupancyParams()
	p.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationOccupancy(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSurplusReset(b *testing.B) {
	p := experiments.DefaultAblationSurplusResetParams()
	p.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSurplusReset(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension experiments ---

func BenchmarkFig6Ext(b *testing.B) {
	p := experiments.DefaultFig6ExtParams()
	p.Cycles = 100_000
	p.Intervals = 500
	p.PLarges = []float64{0.5, 0.05}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6Ext(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParkingLot(b *testing.B) {
	p := experiments.DefaultParkingLotParams()
	p.Cycles = 100_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunParkingLot(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLR(b *testing.B) {
	p := experiments.DefaultLRParams()
	p.Cycles = 100_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLR(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedERR(b *testing.B) {
	p := experiments.DefaultWeightedParams()
	p.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWeighted(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGap(b *testing.B) {
	p := experiments.DefaultGapParams()
	p.Cycles = 200_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGap(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoCSweep(b *testing.B) {
	p := experiments.DefaultNoCSweepParams()
	p.Rates = []float64{0.01, 0.03}
	p.WarmCycles = 10_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNoCSweep(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorem 1: O(1) work complexity with respect to n ---
//
// Per-packet scheduling cost must stay flat as the number of flows
// grows for ERR and DRR, and grow ~log n for the timestamp
// disciplines. Reported as ns/op at n = 8 .. 4096 flows.

func benchWorkComplexity(b *testing.B, mk func() sched.Scheduler) {
	for _, n := range []int{8, 64, 512, 4096} {
		b.Run(benchName(n), func(b *testing.B) {
			d := harness.New(n, mk())
			src := rng.New(1)
			dist := rng.NewUniform(1, 64)
			// Pre-backlog every flow.
			for f := 0; f < n; f++ {
				for k := 0; k < 4; k++ {
					d.Arrive(flit.Packet{Flow: f, Length: dist.Draw(src)})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := d.ServeOne()
				// Keep the system in steady state: one in, one out.
				d.Arrive(flit.Packet{Flow: p.Flow, Length: dist.Draw(src)})
			}
		})
	}
}

func benchName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 64:
		return "n=64"
	case 512:
		return "n=512"
	default:
		return "n=4096"
	}
}

func BenchmarkWorkComplexityERR(b *testing.B) {
	benchWorkComplexity(b, func() sched.Scheduler { return core.New() })
}

func BenchmarkWorkComplexityDRR(b *testing.B) {
	benchWorkComplexity(b, func() sched.Scheduler { return sched.NewDRR(64, nil) })
}

func BenchmarkWorkComplexityWFQ(b *testing.B) {
	benchWorkComplexity(b, func() sched.Scheduler { return sched.NewWFQ(nil) })
}

func BenchmarkWorkComplexityPBRR(b *testing.B) {
	benchWorkComplexity(b, func() sched.Scheduler { return sched.NewPBRR() })
}

func BenchmarkWorkComplexityIWRR(b *testing.B) {
	benchWorkComplexity(b, func() sched.Scheduler { return sched.NewIWRR(func(f int) int { return f%4 + 1 }) })
}

// --- substrate throughput ---

// benchERRConfig is the shared workload of the engine-cycle
// benchmarks: 8 permanently backlogged flows under ERR, so every
// cycle forwards a flit — the worst case for per-cycle observer cost.
func benchERRConfig() engine.Config {
	src := rng.New(3)
	return engine.Config{
		Flows:     8,
		Scheduler: core.New(),
		Source: traffic.NewMulti(
			traffic.NewBacklogged(0, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(1, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(2, 4, rng.NewUniform(1, 128), src.Split()),
			traffic.NewBacklogged(3, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(4, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(5, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(6, 4, rng.NewUniform(1, 64), src.Split()),
			traffic.NewBacklogged(7, 4, rng.NewUniform(1, 64), src.Split()),
		),
	}
}

func BenchmarkEngineCycleERR(b *testing.B) {
	e, err := engine.NewEngine(benchERRConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// BenchmarkEngineCycleERRCollector is BenchmarkEngineCycleERR with an
// obs.Collector wired onto the engine callbacks. The delta between the
// two is the telemetry layer's per-cycle overhead; BENCH_obs.json
// records it, and the acceptance bar is < 5%.
func BenchmarkEngineCycleERRCollector(b *testing.B) {
	cfg := benchERRConfig()
	obs.NewCollector(obs.NewRegistry(), cfg.Flows).Wire(&cfg)
	e, err := engine.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// BenchmarkEngineCycleFBRRSparse exercises the flit-mode engine with
// many flows and sparse traffic — the regime where the old per-cycle
// O(flows) pending scan (and O(flows) Backlog) dominated. With the
// partial-flow counter the idle check is O(1), so ns/cycle stays flat
// as the flow count grows.
func BenchmarkEngineCycleFBRRSparse(b *testing.B) {
	for _, flows := range []int{16, 256, 2048} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			src := rng.New(11)
			// A single low-rate source: most cycles have an empty
			// system, forcing the pending/idle check every cycle, and
			// source stepping stays O(1) so the check dominates.
			e, err := engine.NewEngine(engine.Config{
				Flows:     flows,
				FlitSched: sched.NewFBRR(),
				Source:    traffic.NewBernoulli(0, 0.01, rng.NewUniform(1, 8), src),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			e.Run(int64(b.N))
		})
	}
}

// fig6Engine builds Figure 6's engine at the given flow count the way
// experiments.RunFig6 and RunSim do: ERR, every flow Backlogged at
// depth 4 with truncated-exponential lengths (lambda = 0.2 on [1, 64])
// behind one traffic.Multi, and RunSim's callbacks feeding a
// throughput table, delay statistics and a ServiceLog hinted for
// cycles. The log's stride exceeds cycles, so its per-stride
// checkpoint (one small slice per 4096 cycles in RunSim) stays out of
// allocation counts.
func fig6Engine(tb testing.TB, flows int, cycles int64) *engine.Engine {
	src := rng.New(rng.Derive(1, uint64(flows)))
	dist := rng.NewTruncExp(0.2, 1, 64)
	sources := make([]traffic.Source, flows)
	for f := range sources {
		sources[f] = traffic.NewBacklogged(f, 4, dist, src.Split())
	}
	served := metrics.NewThroughputTable(flows, flit.DefaultFlitBytes)
	delays := metrics.NewDelayStats(flows)
	svc := metrics.NewServiceLogCap(flows, int(cycles)+1, cycles)
	e, err := engine.NewEngine(engine.Config{
		Flows:     flows,
		Scheduler: core.New(),
		Source:    traffic.NewMulti(sources...),
		OnFlit: func(_ int64, flow int) {
			served.Serve(flow, 1)
			svc.Record(flow)
		},
		OnIdle:      func(int64) { svc.Record(metrics.Idle) },
		OnStall:     func(int64, int) { svc.Record(metrics.Stalled) },
		OnDeparture: func(p flit.Packet, cycle, _ int64) { delays.Departure(p, cycle) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkEngineBacklogged runs Figure 6's engine (fig6Engine) for
// 4096 cycles per op at 2, 10 and 64 flows and reports ns/cycle.
// traffic.Multi re-polls only the departed flow's source, so the
// traffic work per departure, and with it ns/cycle, does not grow with
// the flow count.
func BenchmarkEngineBacklogged(b *testing.B) {
	const cyclesPerOp = 4096
	for _, flows := range []int{2, 10, 64} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			e := fig6Engine(b, flows, int64(b.N+1)*cyclesPerOp)
			e.Run(cyclesPerOp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(cyclesPerOp)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cyclesPerOp), "ns/cycle")
		})
	}
}

func BenchmarkOmegaStep(b *testing.B) {
	net, err := min.NewOmega(min.Config{
		Terminals: 16, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for term := 0; term < 16; term++ {
			if net.PendingAt(term) < 2 && src.Bernoulli(0.02) {
				d := src.Intn(15)
				if d >= term {
					d++
				}
				net.Send(term, d, src.IntRange(1, 8))
			}
		}
		net.Step()
	}
}

func BenchmarkDAMQPushPop(b *testing.B) {
	buf := damq.New(64, 4, 2)
	f := flit.Flit{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i & 3
		if !buf.Push(q, f, 0) {
			for !buf.Empty(q) {
				buf.Pop(q)
			}
		}
	}
}

func BenchmarkMeshStep(b *testing.B) {
	m, err := noc.NewMesh(noc.Config{
		K: 4, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(5)
	inj := noc.NewInjector(m, 0.02, noc.Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), src)
	inj.MaxPending = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Step()
		m.Step()
	}
}

// --- NoC stepping-mode benchmarks (BENCH_noc.json) ---

// benchMeshStepping measures one mesh cycle under a stepping mode:
// "reference" is the literal oracle (SetReference: every router, full
// ports-x-VCs scans), "quiescent" steps only routers holding flits or
// locks through the work-lists, and "sharded" additionally fans the
// compute phase across a worker pool. A warm phase reaches steady state first so the active set
// reflects the sustained load, not the cold start.
func benchMeshStepping(b *testing.B, k int, rate float64, mode string, workers int) {
	m, err := noc.NewMesh(noc.Config{
		K: k, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		b.Fatal(err)
	}
	switch mode {
	case "reference":
		m.SetReference(true)
	case "sharded":
		p := exec.NewPool(workers)
		defer p.Close()
		m.SetPool(p)
	}
	inj := noc.NewInjector(m, rate, noc.Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(5))
	inj.MaxPending = 4
	for c := 0; c < 2000; c++ {
		inj.Step()
		m.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Step()
		m.Step()
	}
}

// BenchmarkRouterCompute measures one cycle of a single saturated
// router — both input ports feeding one output, every VC backlogged —
// the innermost unit of the NoC hot path (BENCH_hotpath.json). The
// allocs/op figure is the steady-state allocation gate: it must stay
// at 0.
func BenchmarkRouterCompute(b *testing.B) {
	r, err := wormhole.NewRouter(0, wormhole.Config{
		Ports: 2, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
		Route:  func(_, dst int) int { return 1 },
	})
	if err != nil {
		b.Fatal(err)
	}
	wormhole.ConnectEndpoint(r, 0, &wormhole.Sink{})
	wormhole.ConnectEndpoint(r, 1, &wormhole.Sink{})
	flits := flit.Packet{Flow: 0, Length: 4, Dst: 9}.Flits()
	idx := make([]int, 4)
	cycle := int64(0)
	step := func() {
		cycle++
		for p := 0; p < 2; p++ {
			for v := 0; v < 2; v++ {
				if r.InputFree(p, v) > 0 {
					i := &idx[p*2+v]
					r.Inject(p, v, flits[*i], cycle)
					*i = (*i + 1) % len(flits)
				}
			}
		}
		r.Step(cycle)
	}
	for c := 0; c < 64; c++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkNoCStepping(b *testing.B) {
	// Load points: "low" is a genuinely light load (~1% flit
	// injection, ~20% of routers active) where quiescence pays;
	// "tenpct" is ~10% flit injection, which under uniform traffic
	// already backlogs nearly every router (so skipping buys nothing
	// and must cost nothing); "high" is deep saturation.
	loads := []struct {
		name string
		k    int
		rate float64
	}{
		{"8x8-low", 8, 0.002},
		{"8x8-high", 8, 0.30},
		{"16x16-low", 16, 0.002},
		{"16x16-tenpct", 16, 0.02},
		{"16x16-high", 16, 0.30},
	}
	modes := []struct {
		name, mode string
		workers    int
	}{
		{"reference", "reference", 0},
		{"quiescent", "quiescent", 0},
		{"sharded4", "sharded", 4},
	}
	for _, l := range loads {
		for _, md := range modes {
			b.Run(l.name+"/"+md.name, func(b *testing.B) {
				benchMeshStepping(b, l.k, l.rate, md.mode, md.workers)
			})
		}
	}
}

// --- Tiled stepping benchmarks (BENCH_scale.json hot path) ---

// benchTiledStepping measures one cycle of tile-sharded parallel
// stepping on a torus under the scale-sweep load point (2 VCs, 2-flit
// buffers, 2% injection). The allocs/op figure extends the hot-path
// allocation gate to the tiled commit path: tile arenas, worker
// scratch, boundary effect queues, and the per-cycle tile task list
// are all preallocated, so steady-state stepping must allocate
// nothing at any worker count.
func benchTiledStepping(b *testing.B, k, tile, workers int) {
	m, err := noc.NewMesh(noc.Config{
		K: k, VCs: 2, BufFlits: 2, Torus: true, Tile: tile,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		b.Fatal(err)
	}
	if workers > 1 {
		p := exec.NewPool(workers)
		defer p.Close()
		m.SetPool(p)
	}
	inj := noc.NewInjector(m, 0.02, noc.Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(7))
	inj.MaxPending = 2
	// Large tori take longer than the 16x16 meshes to reach their
	// scratch-capacity high water (effect queues, active lists), so
	// warm well past it: the gate below pins steady state, not growth.
	for c := 0; c < 8000; c++ {
		inj.Step()
		m.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Step()
		m.Step()
	}
}

func BenchmarkNoCTiledStepping(b *testing.B) {
	// 64x64 is the largest torus whose warm-up fits a CI benchmark
	// run; the 256x256..1024x1024 points live in BENCH_scale.json
	// (regenerated offline via errsim -exp scale, not per-commit).
	cases := []struct {
		k, tile, workers int
	}{
		{64, 0, 1}, // default tile (8 at K=64), serial commit path
		{64, 0, 2}, // default tile, one worker per core on a 2-core host
		{64, 0, 4}, // default tile, parallel interior commit
		{64, 16, 4},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%dx%d-tile%d-w%d", c.k, c.k, c.tile, c.workers), func(b *testing.B) {
			benchTiledStepping(b, c.k, c.tile, c.workers)
		})
	}
}

// --- NoC event-core benchmarks (BENCH_noc.json "event core") ---

// benchMeshEventCore measures one epoch of a bursty or fault-windowed
// workload through Run/Drain — the regime the discrete-event core
// exists for. Steady Bernoulli loads (BenchmarkNoCStepping) never
// globally idle, so event-to-event advancement neither helps nor
// hurts there; here each 400k-cycle epoch is mostly gap (idle after a
// burst drains, or dormant behind a known fault window), and the
// event core jumps it while the reference steps every router through
// every cycle. The mesh
// persists across iterations, so allocs/op is the zero-allocation
// steady-state gate for Run/Drain themselves (BENCH_hotpath.json).
func benchMeshEventCore(b *testing.B, scenario string, reference bool) {
	const k, epoch = 16, 400_000
	m, err := noc.NewMesh(noc.Config{
		K: k, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		b.Fatal(err)
	}
	m.RegisterObs(obs.NewRegistry())
	m.SetReference(reference)
	// The freeze-gap scenario wedges traffic behind a frozen center
	// router for most of each epoch. The window predicate is installed
	// once (its bounds move per epoch); the edges are declared known
	// and re-registered each epoch via ScheduleWake, so the frozen
	// router is dormant between edges instead of polled.
	var winStart, winEnd int64
	center := m.NodeID(k/2, k/2)
	if scenario == "freeze-gap" {
		m.Router(center).SetFreeze(func(c int64) bool { return c >= winStart && c < winEnd })
		m.Router(center).SetFaultEdgesKnown(true)
	}
	src := rng.New(5)
	lens := rng.NewUniform(1, 8)
	// Saturation warm: drive every router to backlog once so lazily
	// created per-flow scheduler state and queue capacities exist
	// before measurement (first-touch allocations otherwise trickle in
	// for thousands of epochs under random burst traffic).
	winj := noc.NewInjector(m, 0.30, noc.Uniform{Nodes: m.Nodes()}, lens, rng.New(9))
	winj.MaxPending = 4
	for c := 0; c < 3000; c++ {
		winj.Step()
		m.Step()
	}
	if !m.Drain(epoch) {
		b.Fatal("saturation warm did not drain")
	}
	runEpoch := func() {
		start := m.Cycle()
		if scenario == "freeze-gap" {
			// Thaw 10k cycles before epoch end: the wedged traffic
			// drains inside the epoch, the remainder idles.
			winStart, winEnd = start+100, start+epoch-10_000
			m.ScheduleWake(winStart)
			m.ScheduleWake(winEnd)
		}
		// One packet per node inside a 20-cycle burst (~9% flit
		// injection while it lasts), then nothing for the rest of the
		// epoch.
		for n := 0; n < m.Nodes(); n++ {
			d := src.Intn(m.Nodes())
			if d == n {
				d = (d + 1) % m.Nodes()
			}
			m.SendAt(start+int64(src.Intn(20)), n, d, lens.Draw(src))
		}
		m.Run(epoch)
	}
	for i := 0; i < 3; i++ {
		runEpoch()
	}
	if m.InFlight() != 0 {
		b.Fatalf("%s epoch does not drain: %d in flight", scenario, m.InFlight())
	}
	if !reference && m.Skipped() == 0 {
		b.Fatalf("%s epoch never engaged the event core", scenario)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch()
	}
	b.StopTimer()
	b.ReportMetric(float64(epoch)*1e9/float64(b.Elapsed().Nanoseconds()/int64(b.N)), "cycles/sec")
}

func BenchmarkNoCEventCore(b *testing.B) {
	for _, scenario := range []string{"bursty", "freeze-gap"} {
		for _, md := range []struct {
			name      string
			reference bool
		}{{"event", false}, {"reference", true}} {
			b.Run("16x16-"+scenario+"/"+md.name, func(b *testing.B) {
				benchMeshEventCore(b, scenario, md.reference)
			})
		}
	}
}
