package noc

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// RunFlags are the command-line options every network command shares
// — fault injection, invariant checking, the reference mode, the
// flight recorder and the debug endpoint — and the run steps they
// select (Arm, Report).
type RunFlags struct {
	Faults, PProf           string
	FaultSeed               uint64
	Check, Reference, Trace bool
	TraceSample             int
	TraceOut, TraceJSONL    string

	inj *fault.Injector
	rec *check.Recorder
	tr  *trace.Trace
}

// Register defines the flags on fs.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Faults, "faults", "", `fault-injection spec, e.g. "stall(port=0,at=1000,dur=500);freeze(router=1,at=100,dur=50)" ("" = fault-free; see internal/fault)`)
	fs.Uint64Var(&f.FaultSeed, "faultseed", 0, "fault-randomness seed, independent of -seed (0 = derive from -seed)")
	fs.BoolVar(&f.Check, "check", false, "validate every ejected flit stream and run a deadlock watchdog; a violation or a wedge fails the run with a cycle-stamped report and the channel-wait graph")
	fs.BoolVar(&f.Reference, "reference", false, "run the literal oracle: every cycle, every router, full ports-x-VCs scans (output is identical but for the lines counting the work performed)")
	fs.BoolVar(&f.Trace, "trace", false, "attach the packet flight recorder and print per-source latency tails, hop-time decomposition, and Jain fairness epochs")
	fs.IntVar(&f.TraceSample, "trace-sample", 64, "trace one in this many packets (1 = every packet); sampling is seed-derived per packet id, so trace output is byte-identical across stepping modes")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write sampled-packet spans as Chrome trace-event JSON (Perfetto-loadable) to this file (implies -trace)")
	fs.StringVar(&f.TraceJSONL, "trace-jsonl", "", "write sampled-packet spans as JSONL to this file (implies -trace)")
	fs.StringVar(&f.PProf, "pprof", "", "serve net/http/pprof and the obs registry expvar on this address (e.g. localhost:6060)")
}

// Arm applies the flags to m for a run seeded with seed: the debug
// endpoint, the reference mode, Protect (with a fault seed derived
// from seed unless FaultSeed is set), and the flight recorder when any
// trace flag is set, its rollup metrics in obs.Default. It returns the
// fault injector (nil on a fault-free run). A trace sampling rate
// below 1 with a trace flag set is refused.
func (f *RunFlags) Arm(m *Mesh, seed uint64) (*fault.Injector, error) {
	tracing := f.Trace || f.TraceOut != "" || f.TraceJSONL != ""
	if tracing && f.TraceSample < 1 {
		return nil, fmt.Errorf("-trace-sample %d: below 1", f.TraceSample)
	}
	if f.PProf != "" {
		addr, err := obs.ServeDebug(f.PProf, obs.Default())
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/ (registry at /debug/vars)\n", addr)
	}
	m.SetReference(f.Reference)
	faultSeed := f.FaultSeed
	if faultSeed == 0 {
		faultSeed = rng.Derive(seed, 0xfa0175)
	}
	var err error
	if f.inj, f.rec, err = m.Protect(f.Faults, faultSeed, f.Check); err != nil {
		return nil, err
	}
	if tracing {
		f.tr = m.EnableTrace(TraceConfig{Seed: rng.Derive(seed, 0x7ace), SampleEvery: f.TraceSample, Reg: obs.Default()})
	}
	return f.inj, nil
}

// Report ends a run Arm prepared. With the flight recorder it writes
// the sampled spans as Chrome trace-event JSON and as JSONL to the
// trace files (fault windows attribute fault-blocked cycles), then the
// span count and rollup table on w, auditing the spans when checking.
// With checking it then fails the run on any violation, or prints the
// violation count.
func (f *RunFlags) Report(w io.Writer, m *Mesh) error {
	if f.tr != nil {
		f.tr.Finish(m.Cycle())
		recs := f.tr.Records()
		ws := trace.WindowsFromSpec(f.inj.Spec())
		write := func(path string, export func(io.Writer, []trace.Record, []trace.FaultWindow) error) error {
			if path == "" {
				return nil
			}
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			return errors.Join(export(file, recs, ws), file.Close())
		}
		if err := errors.Join(write(f.TraceOut, trace.WriteChrome), write(f.TraceJSONL, trace.WriteJSONL)); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nflight recorder: %d spans (1-in-%d sampling, %d overwritten)\n",
			len(recs), f.TraceSample, f.tr.Dropped())
		if err := f.tr.Rollup().Render(w); err != nil {
			return err
		}
		if f.rec != nil {
			trace.Audit(recs, f.rec.Report)
		}
	}
	if f.rec != nil {
		if err := f.rec.Err(); err != nil {
			return fmt.Errorf("invariant checking failed: %w", err)
		}
		fmt.Fprintf(w, "\ninvariant checking: %d violations\n", f.rec.Count())
	}
	return nil
}
