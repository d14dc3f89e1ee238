// Command switchsim drives a single wormhole switch (one router from
// package wormhole): several input ports contend for output ports
// through per-output-queue packet arbitration, with a configurable
// downstream drain pattern creating the unpredictable occupancies
// that motivate ERR. It reports per-input throughput on the contended
// output and the occupancy statistics the arbiter actually billed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

func main() {
	var (
		inputs = flag.Int("inputs", 4, "input ports contending for output 0")
		vcs    = flag.Int("vcs", 1, "virtual channels per port")
		buf    = flag.Int("buf", 16, "input VC buffer depth in flits")
		arb    = flag.String("arb", "err", "output arbitration: err, pbrr")
		minLen = flag.Int("minlen", 1, "minimum packet length (flits)")
		maxLen = flag.Int("maxlen", 32, "maximum packet length (flits)")
		bigIn  = flag.Int("bigin", 1, "input whose packets are 4x longer (-1 to disable)")
		drainP = flag.Float64("drain", 1.0, "probability the downstream sink drains a flit each cycle")
		cycles = flag.Int64("cycles", 200_000, "simulation cycles")
		seed   = flag.Uint64("seed", 1, "random seed")
		pprofA = flag.String("pprof", "", "serve net/http/pprof and the obs registry expvar on this address (e.g. localhost:6060)")
		faults = flag.String("faults", "", "fault-injection spec, e.g. \"stall(port=0,at=1000,dur=500);malformed(kind=notail,p=0.001)\" (\"\" = fault-free; see internal/fault)")
		checkF = flag.Bool("check", false, "validate the output flit stream and run a deadlock watchdog; violations fail the run with a cycle-stamped report")
		fseed  = flag.Uint64("faultseed", 0, "fault-randomness seed, independent of -seed (0 = derive from -seed)")
		refF   = flag.Bool("reference", false, "arbitrate with full ports-x-VCs scans instead of the event-driven work-lists (oracle mode; output is identical except the arbitration line, which counts the costlier run's work)")
		traceF = flag.Bool("trace", false, "attach the packet flight recorder and print per-input latency tails, hop-time decomposition, and Jain fairness epochs")
		traceS = flag.Int("trace-sample", 64, "trace one in this many packets (1 = every packet); sampling is seed-derived per packet id, so trace output is byte-identical across stepping modes")
		traceC = flag.String("trace-out", "", "write sampled-packet spans as Chrome trace-event JSON (Perfetto-loadable) to this file (implies -trace)")
		traceJ = flag.String("trace-jsonl", "", "write sampled-packet spans as JSONL to this file (implies -trace)")
	)
	flag.Parse()
	if *pprofA != "" {
		addr, err := obs.ServeDebug(*pprofA, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "switchsim: pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "switchsim: pprof on http://%s/debug/pprof/ (registry at /debug/vars)\n", addr)
	}
	topts := traceOpts{enabled: *traceF || *traceC != "" || *traceJ != "",
		sample: *traceS, chrome: *traceC, jsonl: *traceJ}
	if err := run(*inputs, *vcs, *buf, *arb, *minLen, *maxLen, *bigIn, *drainP, *cycles, *seed, *faults, *fseed, *checkF, *refF, topts); err != nil {
		fmt.Fprintf(os.Stderr, "switchsim: %v\n", err)
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

func run(inputs, vcs, buf int, arb string, minLen, maxLen, bigIn int, drainP float64, cycles int64, seed uint64, faults string, faultSeed uint64, checkF bool, reference bool, topts traceOpts) error {
	var newArb func() sched.Scheduler
	switch arb {
	case "err":
		newArb = func() sched.Scheduler { return core.New() }
	case "pbrr":
		newArb = func() sched.Scheduler { return sched.NewPBRR() }
	default:
		return fmt.Errorf("unknown arbiter %q", arb)
	}
	ports := inputs + 1 // port 0 is the contended output
	r, err := wormhole.NewRouter(0, wormhole.Config{
		Ports:    ports,
		VCs:      vcs,
		BufFlits: buf,
		NewArb:   newArb,
		Route:    func(dst int) int { return dst },
	})
	if err != nil {
		return err
	}
	r.SetFullScan(reference)
	spec, err := fault.Parse(faults)
	if err != nil {
		return err
	}
	if faultSeed == 0 {
		faultSeed = rng.Derive(seed, 0xfa0175)
	}
	finj := fault.New(spec, faultSeed)
	if f := finj.FreezeFunc(0); f != nil {
		r.SetFreeze(f)
	}
	for port := 0; port < ports; port++ {
		if f := finj.OutputFault(0, port); f != nil {
			r.SetOutputFault(port, f)
		}
	}
	// Flit-level malformed directives (notail, duphead, ...) replace a
	// whole injected packet's flit stream; they exercise the switch's
	// tolerance and, with -check, the stream validator's detection.
	var mdirs []fault.Directive
	if spec != nil {
		for _, d := range spec.Directives {
			if d.Kind == "malformed" {
				mdirs = append(mdirs, d)
			}
		}
	}
	msrc := rng.New(rng.Derive(faultSeed, 0xfa02))
	var malformed int64

	src := rng.New(seed)
	sink := wormhole.NewStallSink(8, func(cycle int64) bool { return src.Bernoulli(drainP) })
	wormhole.ConnectEndpoint(r, 0, sink)
	sink.Bind(r, 0)
	served := make([]float64, inputs)
	// Malformed streams can carry out-of-range flow ids; tolerate them
	// rather than indexing blindly.
	sink.Inner.OnFlit = func(f flit.Flit, vc int, cycle int64) {
		if f.Flow >= 1 && f.Flow <= inputs {
			served[f.Flow-1]++
		}
	}

	var rec *check.Recorder
	var wd *check.Watchdog
	if checkF {
		rec = check.NewRecorder()
		rec.Register(obs.Default())
		stream := check.NewFlitStream(rec, "output 0")
		prev := sink.Inner.OnFlit
		sink.Inner.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			stream.Observe(f, vc, cycle)
			wd.Progress(cycle)
			prev(f, vc, cycle)
		}
		wd = check.NewWatchdog(spec.WatchdogBudget())
	}

	// The flight recorder treats the switch as a single hop: the
	// router-side tracer records the arbitration span, and the CLI
	// emits inject (packet drawn into the backlog) and deliver (true
	// tail observed at the sink) around it. Malformed packets are not
	// flight-recorded — they have no well-defined span.
	type pktMeta struct {
		t0     int64
		length int
	}
	var tr *trace.Trace
	var inflight map[int64]pktMeta
	var nextID int64 = 1
	if topts.enabled {
		tr = trace.New(trace.Config{
			Seed:        rng.Derive(seed, 0x7ace),
			SampleEvery: topts.sample,
			Flows:       ports,
			Reg:         obs.Default(),
		})
		r.SetTracer(tr.AddRouter(0, ports, vcs, buf))
		inflight = make(map[int64]pktMeta)
		prev := sink.Inner.OnFlit
		sink.Inner.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			if f.Kind == flit.Tail || f.Kind == flit.HeadTail {
				if meta, ok := inflight[f.PktID]; ok && f.Seq == meta.length-1 {
					tr.Deliver(f, meta.length, cycle-meta.t0+1, cycle)
					delete(inflight, f.PktID)
				}
			}
			prev(f, vc, cycle)
		}
	}

	// Keep every input backlogged, feeding whole packets when space
	// allows.
	dists := make([]rng.LengthDist, inputs)
	for i := range dists {
		if i+1 == bigIn {
			dists[i] = rng.NewUniform(minLen*4, maxLen*4)
		} else {
			dists[i] = rng.NewUniform(minLen, maxLen)
		}
	}
	pending := make([][]flit.Flit, inputs)
	for c := int64(0); c < cycles; c++ {
		for in := 0; in < inputs; in++ {
			port := in + 1
			if pending[in] == nil {
				p := flit.Packet{Flow: port, Length: dists[in].Draw(src), Dst: 0, ID: nextID}
				nextID++
				fs := p.Flits()
				wellFormed := true
				for _, d := range mdirs {
					if msrc.Bernoulli(d.P) {
						fs = fault.MalformedFlits(d.MKind, port, p.Length, malformed)
						malformed++
						wellFormed = false
						break
					}
				}
				if len(fs) == 0 {
					continue // zero-length malformation: nothing to inject
				}
				pending[in] = fs
				if tr != nil && wellFormed {
					if tr.Sampler().Sample(p.ID) {
						for i := range fs {
							fs[i].Traced = true
						}
					}
					tr.Inject(p.ID, port, 0, port, p.Length, c)
					inflight[p.ID] = pktMeta{t0: c, length: p.Length}
				}
			}
			// Inject on VC 0: a packet's flits must stay contiguous
			// within one VC.
			if r.Inject(port, 0, pending[in][0], c) {
				pending[in] = pending[in][1:]
				if len(pending[in]) == 0 {
					pending[in] = nil
				}
			}
		}
		r.Step(c)
		sink.Step(c)
		// Inputs are permanently backlogged, so a silent output for the
		// whole watchdog budget means the switch is wedged: abort with
		// the channel-wait graph at the trip cycle.
		if wd != nil && wd.Expired(c, 1) {
			dump := ""
			for _, e := range r.WaitEdges(c) {
				dump += "  " + e.String() + "\n"
			}
			return fmt.Errorf("wedged at cycle %d (no delivery for %d cycles)\nchannel-wait graph:\n%s",
				c, wd.Limit, dump)
		}
	}

	labels := make([]string, inputs)
	for i := range labels {
		labels[i] = fmt.Sprintf("input %d", i+1)
		if i+1 == bigIn {
			labels[i] += " (4x len)"
		}
	}
	fmt.Printf("switch: %d inputs -> 1 output, arb=%s, drain p=%.2f, %d cycles\n",
		inputs, arb, drainP, cycles)
	mode := "work-list"
	if reference {
		mode = "full-scan"
	}
	fmt.Printf("arbitration: %s, %.2f arbitration sites visited/cycle (switch holds %d ports*VCs cells)\n",
		mode, float64(r.TakeCellsVisited())/float64(cycles), ports*vcs)
	if fc := finj.Counters(); fc != (fault.Counters{}) || malformed > 0 {
		fmt.Printf("faults: %d stall cycles, %d dropped flits, %d corrupted flits, %d malformed packets\n",
			fc.StallCycles, fc.Dropped, fc.Corrupted, malformed)
	}
	fmt.Println()
	if err := plot.Bar(os.Stdout, "Flits delivered per input on the contended output", labels, served, 50); err != nil {
		return err
	}
	if tr != nil {
		tr.Finish(cycles)
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
