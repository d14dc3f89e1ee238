// Command nocsim runs a k x k wormhole mesh network-on-chip with a
// selectable per-output arbitration discipline and synthetic traffic,
// reporting end-to-end latency and per-source throughput fairness —
// the paper's scheduler operating inside the network it was designed
// for.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		k       = flag.Int("k", 4, "mesh radix (k x k nodes)")
		vcs     = flag.Int("vcs", 2, "virtual channels per port")
		buf     = flag.Int("buf", 8, "input VC buffer depth in flits")
		arb     = flag.String("arb", "err", "output arbitration: err, werr, pbrr")
		pattern = flag.String("pattern", "uniform", "traffic: uniform, hotspot, transpose")
		rate    = flag.Float64("rate", 0.02, "per-node injection rate (packets/cycle)")
		minLen  = flag.Int("minlen", 1, "minimum packet length (flits)")
		maxLen  = flag.Int("maxlen", 16, "maximum packet length (flits)")
		cycles  = flag.Int64("cycles", 100_000, "warm simulation cycles before draining")
		seed    = flag.Uint64("seed", 1, "random seed")
		torus   = flag.Bool("torus", false, "wraparound links with dateline VC switching")
		tile    = flag.Int("tile", 0, "commit tile edge in routers (0 = K-derived default); part of the simulated configuration — artifacts depend on it, never on -parallel-mesh")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof and the obs registry expvar on this address (e.g. localhost:6060)")
		faults  = flag.String("faults", "", "fault-injection spec, e.g. \"freeze(router=5,at=1000,dur=500);drop(router=0,port=1,p=0.01)\" (\"\" = fault-free; see internal/fault)")
		checkF  = flag.Bool("check", false, "validate ejected flit streams and run a deadlock watchdog that dumps the channel-wait graph on a stall")
		fseed   = flag.Uint64("faultseed", 0, "fault-randomness seed, independent of -seed (0 = derive from -seed)")
		par     = flag.Int("parallel-mesh", 1, "shard mesh stepping across this many workers (1 = serial, 0 = GOMAXPROCS); output is identical at any setting")
		refF    = flag.Bool("reference", false, "run the literal oracle: step every cycle and every router with full ports-x-VCs scans (deliveries and latency are identical, but the stepping:, arbitration: and layout: lines count the costlier run's work)")
		traceF  = flag.Bool("trace", false, "attach the packet flight recorder and print per-flow latency tails, hop-time decomposition, and Jain fairness epochs")
		traceS  = flag.Int("trace-sample", 64, "trace one in this many packets (1 = every packet); sampling is seed-derived per packet id, so trace output is byte-identical across stepping modes")
		traceC  = flag.String("trace-out", "", "write sampled-packet spans as Chrome trace-event JSON (Perfetto-loadable) to this file (implies -trace)")
		traceJ  = flag.String("trace-jsonl", "", "write sampled-packet spans as JSONL to this file (implies -trace)")
	)
	flag.Parse()
	if *pprofA != "" {
		addr, err := obs.ServeDebug(*pprofA, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsim: pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nocsim: pprof on http://%s/debug/pprof/ (registry at /debug/vars)\n", addr)
	}
	topts := traceOpts{enabled: *traceF || *traceC != "" || *traceJ != "",
		sample: *traceS, chrome: *traceC, jsonl: *traceJ}
	if err := run(*k, *vcs, *buf, *tile, *arb, *pattern, *rate, *minLen, *maxLen, *cycles, *seed, *torus, *faults, *fseed, *checkF, *par, *refF, topts); err != nil {
		fmt.Fprintf(os.Stderr, "nocsim: %v\n", err)
		os.Exit(1)
	}
}

// traceOpts bundles the flight-recorder flags.
type traceOpts struct {
	enabled bool
	sample  int
	chrome  string
	jsonl   string
}

func run(k, vcs, buf, tile int, arb, pattern string, rate float64, minLen, maxLen int, cycles int64, seed uint64, torus bool, faults string, faultSeed uint64, checkF bool, parallel int, reference bool, topts traceOpts) error {
	var newArb func() sched.Scheduler
	switch arb {
	case "err":
		newArb = func() sched.Scheduler { return core.New() }
	case "werr":
		// Local traffic gets double weight: an example of weighted ERR
		// prioritising injection over through-traffic.
		newArb = func() sched.Scheduler {
			return core.NewWeighted(func(flow int) int64 {
				if flow/vcs == noc.PortLocal {
					return 2
				}
				return 1
			})
		}
	case "pbrr":
		newArb = func() sched.Scheduler { return sched.NewPBRR() }
	default:
		return fmt.Errorf("unknown arbiter %q", arb)
	}

	m, err := noc.NewMesh(noc.Config{K: k, VCs: vcs, BufFlits: buf, NewArb: newArb, Torus: torus, Tile: tile})
	if err != nil {
		return err
	}
	m.RegisterObs(obs.Default())
	m.SetReference(reference)
	if parallel != 1 {
		pool := exec.NewPool(parallel)
		defer pool.Close()
		m.SetPool(pool)
	}

	spec, err := fault.Parse(faults)
	if err != nil {
		return err
	}
	if faultSeed == 0 {
		faultSeed = rng.Derive(seed, 0xfa0175)
	}
	finj := fault.New(spec, faultSeed)
	m.InstallFaults(finj)
	var rec *check.Recorder
	var wd *check.Watchdog
	if checkF {
		rec = check.NewRecorder()
		rec.Register(obs.Default())
		m.CheckStreams(rec)
		wd = check.NewWatchdog(spec.WatchdogBudget())
		m.WatchProgress(wd)
	}
	// wedgeReport renders the abort diagnostic for a mesh holding flits
	// that has delivered nothing for the watchdog budget: the
	// channel-wait graph (who is blocked on which VC, and why) at the
	// trip cycle.
	wedgeReport := func(c int64) error {
		return fmt.Errorf("wedged at cycle %d: %d flits in flight, no delivery for %d cycles (%d flits dropped by fault injection)\nchannel-wait graph:\n%s",
			c, m.InFlight(), wd.Limit, finj.Counters().Dropped,
			noc.FormatWaitGraph(m.WaitGraph(c), 32))
	}
	// The warm loop steps manually (the injector is cycle-driven), so
	// it polls the watchdog itself; the drain runs through Mesh.Drain,
	// which consults the watchdog every stepped cycle and at the trip
	// point of any skipped gap, reporting through the OnWedged hook.
	wedged := func() error {
		if wd == nil || !wd.Expired(m.Cycle(), int64(m.InFlight())) {
			return nil
		}
		return wedgeReport(m.Cycle())
	}
	var wedgeErr error
	if wd != nil {
		m.SetOnWedged(func(c int64) { wedgeErr = wedgeReport(c) })
	}

	var tr *trace.Trace
	if topts.enabled {
		tr = m.EnableTrace(noc.TraceConfig{
			Seed:        rng.Derive(seed, 0x7ace),
			SampleEvery: topts.sample,
			Reg:         obs.Default(),
		})
	}

	var pat noc.Pattern
	switch pattern {
	case "uniform":
		pat = noc.Uniform{Nodes: m.Nodes()}
	case "hotspot":
		pat = noc.Hotspot{Nodes: m.Nodes(), Node: m.NodeID(k/2, k/2), Frac: 0.3}
	case "transpose":
		pat = noc.Transpose{K: k}
	default:
		return fmt.Errorf("unknown pattern %q", pattern)
	}

	src := rng.New(seed)
	inj := noc.NewInjector(m, rate, pat, rng.NewUniform(minLen, maxLen), src)
	inj.MaxPending = 8
	for c := int64(0); c < cycles; c++ {
		inj.Step()
		m.Step()
		if err := wedged(); err != nil {
			return err
		}
	}
	drained := m.Drain(10 * cycles)
	if wedgeErr != nil {
		return wedgeErr
	}

	var injected, delivered int64
	flits := make([]float64, m.Nodes())
	labels := make([]string, m.Nodes())
	for n := 0; n < m.Nodes(); n++ {
		injected += inj.Injected[n]
		delivered += m.DeliveredPackets[n]
		flits[n] = float64(m.DeliveredFlits[n])
		x, y := m.Coords(n)
		labels[n] = fmt.Sprintf("(%d,%d)", x, y)
	}

	topo := "mesh"
	if torus {
		topo = "torus"
	}
	fmt.Printf("%s %dx%d, %d VCs, buf %d flits, arb=%s, pattern=%s, rate=%.3f\n",
		topo, k, k, vcs, buf, arb, pattern, rate)
	fmt.Printf("cycles: %d (+drain), injected: %d packets, delivered: %d, drained: %v\n",
		cycles, injected, delivered, drained)
	fmt.Printf("latency: mean %.1f cycles, min %.0f, max %.0f (n=%d)\n",
		m.Latency.Mean(), m.Latency.Min(), m.Latency.Max(), m.Latency.N())
	spread := stats.MaxAbsDiff(flits)
	fmt.Printf("per-source delivered flits: spread %.0f\n", spread)
	if cyc := obs.Default().Counter("noc.cycles").Value(); cyc > 0 {
		comp := obs.Default().Counter("noc.router_computes").Value()
		fmt.Printf("stepping: avg %.1f of %d routers active per cycle (high water %d)\n",
			float64(comp)/float64(cyc), m.Nodes(),
			obs.Default().Gauge("noc.active_routers_high_water").Value())
		mode := "work-list"
		if reference {
			mode = "full-scan"
		}
		cells := obs.Default().Counter("noc.cells_visited").Value()
		fmt.Printf("arbitration: %s, %.1f arbitration sites visited/cycle (mesh holds %d ports*VCs cells); %d idle cycles skipped\n",
			mode, float64(cells)/float64(cyc), m.Nodes()*noc.RouterPorts*vcs,
			obs.Default().Counter("noc.cycles_skipped").Value())
		crossShare := 0.0
		if comp > 0 {
			crossShare = float64(m.CrossShardEffects()) / float64(comp)
		}
		fmt.Printf("layout: %d B/router arena, %dx%d commit tiles (%d tiles), %.1f%% of router computes emitted cross-tile effects\n",
			m.BytesPerRouter(), m.TileEdge(), m.TileEdge(), m.Tiles(), 100*crossShare)
	}
	if fc := finj.Counters(); fc != (fault.Counters{}) {
		fmt.Printf("faults: %d stall cycles, %d dropped flits, %d corrupted flits\n",
			fc.StallCycles, fc.Dropped, fc.Corrupted)
	}
	fmt.Println()
	if err := plot.Bar(os.Stdout, "Delivered flits per source node", labels, flits, 50); err != nil {
		return err
	}
	if tr != nil {
		tr.Finish(m.Cycle())
		recs := tr.Records()
		ws := trace.WindowsFromSpec(spec)
		if err := writeTraceFile(topts.chrome, func(w *os.File) error {
			return trace.WriteChrome(w, recs, ws)
		}); err != nil {
			return err
		}
		if err := writeTraceFile(topts.jsonl, func(w *os.File) error {
			return trace.WriteJSONL(w, recs, ws)
		}); err != nil {
			return err
		}
		fmt.Printf("\nflight recorder: %d spans (1-in-%d sampling, %d overwritten)\n",
			len(recs), topts.sample, tr.Dropped())
		if err := tr.Rollup().Render(os.Stdout); err != nil {
			return err
		}
		if rec != nil {
			// Span invariants report into the same recorder as the
			// stream checks, so violations fail the run below.
			trace.Audit(recs, rec.Report)
		}
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return fmt.Errorf("invariant checking failed: %w", err)
		}
		fmt.Printf("\ninvariant checking: %d violations\n", rec.Count())
	}
	return nil
}

// writeTraceFile writes one trace export to path ("" = skip).
func writeTraceFile(path string, write func(*os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
