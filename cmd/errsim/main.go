// Command errsim regenerates the tables and figures of "Fair and
// Efficient Packet Scheduling in Wormhole Networks" (Kanhere, Parekh
// & Sethu, IPDPS 2000) from the reproduction library.
//
// Usage:
//
//	errsim -exp <name> [flags]
//
// The names are those of the experiment table in internal/experiments
// (errsim -h lists them).
// Paper-scale parameters are the defaults; -cycles scales the main
// run length down for quick looks. Output is an ASCII rendering of
// the table/figure followed by a CSV block for external plotting.
// -progress renders a live jobs-completed line on stderr, -manifest
// appends a JSONL run manifest (schema, command line, seeds, workers,
// cycles, wall time, throughput) to the given path, and -pprof serves
// net/http/pprof plus an expvar snapshot of the obs registry for
// profiling long sweeps live.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// emit writes a result as its ASCII/CSV rendering or, with -json, as
// an indented JSON document of the full result struct.
func emit(w io.Writer, res experiments.Result, asJSON bool) error {
	if !asJSON {
		return res.Render(w)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func main() {
	var (
		exp       = flag.String("exp", "table1", "experiment: "+strings.Join(experiments.Names(), ", "))
		cycles    = flag.Int64("cycles", 0, "override the experiment's main run length in cycles (0 = paper scale)")
		seed      = flag.Uint64("seed", 1, "random seed")
		intervals = flag.Int("intervals", 0, "fig6, fig6ext: random intervals to average over (0 = the experiment's default)")
		repeats   = flag.Int("repeats", 0, "fig5: seeds to average each point over (0 = default 5)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent simulation jobs (1 = serial; output is identical for any value)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of ASCII/CSV")
		progress  = flag.Bool("progress", false, "render a jobs-completed progress line on stderr")
		quiet     = flag.Bool("quiet", false, "suppress the progress line (overrides -progress)")
		manifest  = flag.String("manifest", "", "append a JSONL run manifest to this path (\"\" = no manifest)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and the obs registry expvar on this address (e.g. localhost:6060)")
		faults    = flag.String("faults", "", "fault-injection spec, e.g. \"stall(flow=0,at=1000,dur=500);drop(router=0,port=1,p=0.01)\" (\"\" = fault-free; see internal/fault)")
		checkInv  = flag.Bool("check", false, "enable the runtime invariant checker (ERR Lemma 1, flit conservation, FIFO, deadlock watchdog); violations fail the run with a cycle-stamped report")
		ckptPath  = flag.String("checkpoint", "", "record completed grid jobs to this JSONL file for crash-resilient sweeps (\"\" = off)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint, skipping jobs it already holds; aggregate output is byte-identical to an uninterrupted run")
		traceOut  = flag.String("trace-out", "", "write sampled packet spans (inject -> departure per grid job) as Chrome trace-event JSON (Perfetto-loadable) to this file; with -parallel > 1 track numbering follows job completion order")
		traceSamp = flag.Int("trace-sample", 64, "with -trace-out: trace one in this many packets (1 = every packet)")
		shard     = flag.Int("shard", 0, "with -of N: run only grid jobs with index %% N == shard (scale sweeps split across processes; see -checkpoint)")
		shardOf   = flag.Int("of", 0, "split the grid round-robin across this many processes (0 = no sharding); each process needs its own -checkpoint, merged afterwards by a -resume run")
		mergeCkpt = flag.String("merge", "", "comma-separated per-shard checkpoint files to merge into -checkpoint (scale only); merge then rerun with -resume for the full result")
	)
	flag.Parse()
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "errsim: -resume requires -checkpoint")
		os.Exit(1)
	}
	if *pprofAddr != "" {
		addr, err := obs.ServeDebug(*pprofAddr, obs.Default())
		if err != nil {
			fmt.Fprintf(os.Stderr, "errsim: pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "errsim: pprof on http://%s/debug/pprof/ (registry at /debug/vars)\n", addr)
	}
	var prog exec.Progress
	if *progress && !*quiet {
		prog = obs.NewProgress(os.Stderr, *exp)
	}
	// A collector is only worth its (small) per-cycle cost when
	// something consumes the registry: the manifest snapshot or the
	// expvar endpoint. Sized to the engine's flow-id ceiling so one
	// collector serves every grid job regardless of flow count.
	var col *obs.Collector
	if *manifest != "" || *pprofAddr != "" {
		col = obs.NewCollector(obs.Default(), 254)
	}
	var et *trace.EngineTrace
	if *traceOut != "" {
		if *traceSamp < 1 {
			fmt.Fprintf(os.Stderr, "errsim: -trace-sample %d: below 1\n", *traceSamp)
			os.Exit(1)
		}
		et = trace.NewEngineTrace(rng.Derive(*seed, 0x7ace), *traceSamp, 1<<20)
	}
	e, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "errsim: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	cfg := experiments.Config{
		Seed: *seed, Cycles: *cycles, Intervals: *intervals, Repeats: *repeats,
		EngineOptions: experiments.EngineOptions{
			Options: experiments.Options{
				Workers: *parallel, Progress: prog,
				Faults: *faults, Check: *checkInv,
				Checkpoint: *ckptPath, Resume: *resume,
			},
			Collector: col, Trace: et,
		},
		Shard: *shard, Of: *shardOf,
	}
	if *mergeCkpt != "" {
		cfg.Merge = strings.Split(*mergeCkpt, ",")
	}
	start := time.Now()
	res, err := e.Run(*exp, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "errsim: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if et != nil {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteChrome(f, et.Records(), nil)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "errsim: trace: %v\n", err)
			os.Exit(1)
		}
		if d := et.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "errsim: trace: %d spans overwritten (lower -trace-sample or shorten the run)\n", d)
		}
	}
	if err := emit(os.Stdout, res, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "errsim: %v\n", err)
		os.Exit(1)
	}
	if *manifest != "" {
		info := obs.RunInfo{Experiment: *exp, Workers: exec.Workers(*parallel)}
		if mi, ok := res.(interface{ RunInfo() obs.RunInfo }); ok {
			info = mi.RunInfo()
		}
		m := obs.NewManifest(info, "", wall).
			WithFaults(*faults, obs.Default().Counter("check.violations").Value()).
			WithMetrics(obs.Default())
		if err := m.AppendTo(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "errsim: manifest: %v\n", err)
			os.Exit(1)
		}
	}
}
