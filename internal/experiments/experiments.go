// Package experiments reproduces, one runner per table/figure, the
// evaluation section of "Fair and Efficient Packet Scheduling in
// Wormhole Networks" (Kanhere, Parekh & Sethu, IPDPS 2000):
//
//   - Table 1 — fairness measure and work complexity of the
//     disciplines, with an empirical fairness check per discipline;
//   - Figure 3 — a traced ERR execution (see cmd/errtrace);
//   - Figure 4 (a-d) — per-flow throughput of ERR vs PBRR, FBRR,
//     FCFS, DRR under heterogeneous rates and packet lengths;
//   - Figure 5 (a,b) — average packet delay vs transient congestion
//     intensity, ERR vs FCFS and vs PBRR;
//   - Figure 6 — average relative fairness vs number of flows, ERR
//     vs DRR under exponentially distributed packet lengths;
//
// plus the ablations called out in DESIGN.md. Every runner accepts a
// scaled-down parameter set so the full suite also runs as tests; the
// paper-scale parameters are the defaults. The experiment table
// (table.go) names every runner for cmd/errsim and cmd/reproduce.
package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SimResult bundles the measurements of one simulation run.
type SimResult struct {
	// Discipline is the scheduler's Name.
	Discipline string
	// Throughput holds per-flow served volume.
	Throughput *metrics.ThroughputTable
	// Delays holds packet delay statistics.
	Delays *metrics.DelayStats
	// Log is the cycle-resolution service log (nil unless requested).
	Log *metrics.ServiceLog
	// Cycles is the number of simulated cycles.
	Cycles int64
	// Faults summarises what the fault injector actually did (zero
	// when no FaultSpec was configured).
	Faults fault.Counters
	// Rejected counts malformed packets refused at injection.
	Rejected int64
}

// SimConfig configures one run of the single-server simulator.
type SimConfig struct {
	Flows     int
	Scheduler sched.Scheduler     // exactly one of Scheduler /
	FlitSched sched.FlitScheduler // FlitSched must be set
	Source    traffic.Source
	Cycles    int64
	// DrainAfter, when true, keeps stepping after Cycles until all
	// queues empty (the Figure 5 protocol), for at most 16x Cycles.
	DrainAfter bool
	// WithLog records a cycle-resolution metrics.ServiceLog
	// (costs one byte per cycle).
	WithLog bool
	// Stall, if set, injects downstream stalls (wormhole occupancy
	// mode).
	Stall engine.StallModel
	// AllowLengthAwareStalls forwards to engine.Config (ablations
	// only).
	AllowLengthAwareStalls bool
	// Collector, if set, is wired onto the engine callbacks and
	// accumulates registry metrics (per-flow service, delay/occupancy
	// histograms, backlog high water) alongside the standard result
	// metrics. Safe to share across concurrent runs: all collector
	// mutations are atomic.
	Collector *obs.Collector `json:"-"`
	// Trace, if set, is the packet flight recorder wired onto the
	// engine callbacks (each run becomes one track of engine spans).
	Trace *trace.EngineTrace `json:"-"`
	// FaultSpec, when non-empty, is a fault directive string (see
	// fault.Parse) injected into this run: link stalls wrap Stall,
	// malformed packets wrap Source. Fault randomness derives from
	// FaultSeed, so a faulted run is exactly repeatable.
	FaultSpec string
	FaultSeed uint64
	// Check enables the runtime invariant checker: Lemma 1 on every
	// ERR service opportunity, flit conservation, per-flow FIFO
	// departure order, ActiveList consistency, and a deadlock/livelock
	// watchdog. Violations fail the run with a *check.ViolationError
	// carrying cycle-stamped event traces. Checked runs step with a
	// per-cycle audit, so they are slower; the default fast path is
	// untouched when Check is false.
	Check bool
	// WatchdogCycles is the checker's no-progress budget (0 = the
	// fault spec's fault.Spec.WatchdogBudget).
	WatchdogCycles int64
}

// RunSim executes one simulation and collects the standard metrics.
func RunSim(cfg SimConfig) (*SimResult, error) {
	res := &SimResult{
		Throughput: metrics.NewThroughputTable(cfg.Flows, flit.DefaultFlitBytes),
		Delays:     metrics.NewDelayStats(cfg.Flows),
	}
	if cfg.Scheduler != nil {
		res.Discipline = cfg.Scheduler.Name()
	} else if cfg.FlitSched != nil {
		res.Discipline = cfg.FlitSched.Name()
	}
	if cfg.WithLog {
		// The hint preallocates for the main run; drain-phase cycles
		// beyond it simply grow the log.
		res.Log = metrics.NewServiceLogCap(cfg.Flows, 0, cfg.Cycles)
	}
	ecfg := engine.Config{
		Flows:                  cfg.Flows,
		Scheduler:              cfg.Scheduler,
		FlitSched:              cfg.FlitSched,
		Source:                 cfg.Source,
		Stall:                  cfg.Stall,
		AllowLengthAwareStalls: cfg.AllowLengthAwareStalls,
		OnFlit: func(cycle int64, flow int) {
			res.Throughput.Serve(flow, 1)
			if res.Log != nil {
				res.Log.Record(flow)
			}
		},
		OnDeparture: func(p flit.Packet, cycle, occ int64) {
			res.Delays.Departure(p, cycle)
		},
	}
	if res.Log != nil {
		ecfg.OnIdle = func(cycle int64) { res.Log.Record(metrics.Idle) }
		// Without this, a stall model plus WithLog would fall back to
		// OnIdle and occupancy-without-service cycles would be logged
		// as idle time, undercounting utilization derived from the log.
		ecfg.OnStall = func(cycle int64, flow int) { res.Log.Record(metrics.Stalled) }
	}
	o := EngineOptions{Options: Options{Faults: cfg.FaultSpec, Check: cfg.Check},
		Collector: cfg.Collector, Trace: cfg.Trace}
	inj, chk, err := o.wire(&ecfg, cfg.FaultSeed, cfg.WatchdogCycles)
	if err != nil {
		return nil, err
	}

	e, err := engine.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		chk.Attach(e, cfg.Scheduler)
	}

	finish := func() {
		res.Faults = inj.Counters()
		res.Rejected = e.Rejected()
		o.record(e, inj)
	}
	// fail ends the run with the checker's report, registering the
	// fault counters first so a wedged run still shows what fired.
	fail := func(phase string, err error) (*SimResult, error) {
		finish()
		if chk.Watchdog.Tripped() {
			return nil, fmt.Errorf("experiments: %s wedged%s: %w", res.Discipline, phase, err)
		}
		return nil, fmt.Errorf("experiments: %s failed invariant checking: %w", res.Discipline, err)
	}

	stepped, err := runChecked(e, chk, cfg.Cycles, false)
	res.Cycles = stepped
	if err != nil {
		return fail("", err)
	}
	if cfg.DrainAfter {
		budget := 16 * cfg.Cycles
		extra, err := runChecked(e, chk, budget, true)
		res.Cycles += extra
		if err != nil {
			return fail(" during drain", err)
		}
		if e.Backlog() > 0 {
			return nil, fmt.Errorf("experiments: %s did not drain within %d cycles",
				res.Discipline, budget)
		}
	}
	finish()
	return res, nil
}

// Options are the run options every grid runner shares, embedded in
// its params. Workers, Progress, Checkpoint and Resume choose how a
// grid runs, never what it computes, so only Faults and Check enter
// the checkpoint grid signature (exec.Signature hashes the params'
// JSON form): a checkpoint resumes under any worker count.
type Options struct {
	// Workers caps the worker pool running the grid's jobs (0 =
	// GOMAXPROCS, 1 = serial). The result is byte-identical for every
	// value: each job owns its workload and rng stream.
	Workers int `json:"-"`
	// Progress, if set, observes grid-job completions (see
	// exec.WithProgress).
	Progress exec.Progress `json:"-"`
	// Faults is a fault directive string (see fault.Parse) injected
	// into every simulation of the grid ("" = fault-free).
	Faults string
	// Check enables the runtime invariant checker in every simulation
	// (see SimConfig.Check): a violation or a tripped deadlock
	// watchdog fails the job with a structured, cycle-stamped report.
	Check bool
	// Checkpoint is a JSONL checkpoint path enabling crash-resilient
	// grid execution: completed jobs are recorded as they finish, and
	// with Resume set a rerun skips them, producing byte-identical
	// aggregate output ("" = no checkpointing).
	Checkpoint string `json:"-"`
	Resume     bool   `json:"-"`
}

// EngineOptions adds the engine telemetry that the single-server
// runners wire into every job; neither changes the result.
type EngineOptions struct {
	Options
	// Collector, if set, accumulates registry metrics from every job
	// (see SimConfig.Collector).
	Collector *obs.Collector `json:"-"`
	// Trace, if set, is the packet flight recorder wired into every
	// job (see SimConfig.Trace); each job becomes one span track.
	Trace *trace.EngineTrace `json:"-"`
}

// faultSeed derives the fault-randomness seed of grid job i, kept
// separate from the job's traffic seed so enabling faults never
// perturbs the arrival sequence.
func faultSeed(base uint64, job int) uint64 {
	return rng.Derive(base, 0xfa0175, uint64(job))
}

// runSim runs cfg as job of a grid seeded with seed, under o's
// telemetry, faults and checker.
func (o EngineOptions) runSim(cfg SimConfig, seed uint64, job int) (*SimResult, error) {
	cfg.Collector, cfg.Trace = o.Collector, o.Trace
	cfg.FaultSpec, cfg.FaultSeed, cfg.Check = o.Faults, faultSeed(seed, job), o.Check
	return RunSim(cfg)
}

// wire installs o's telemetry, fault injector and (with Check) the
// invariant checker, with a watchdog budget of watchdog cycles (0 =
// fault.Spec.WatchdogBudget), into a raw engine.Config. Call before
// engine.NewEngine; afterwards attach the checker with
// chk.Attach(e, cfg.Scheduler), step with runChecked and finish with
// record.
func (o EngineOptions) wire(cfg *engine.Config, faultSeed uint64, watchdog int64) (*fault.Injector, *check.EngineChecker, error) {
	if o.Collector != nil {
		o.Collector.Wire(cfg)
	}
	if o.Trace != nil {
		o.Trace.Wire(&cfg.OnInject, &cfg.OnDeparture)
	}
	spec, err := fault.Parse(o.Faults)
	if err != nil {
		return nil, nil, err
	}
	if err := fault.Engine.Check(spec); err != nil {
		return nil, nil, err
	}
	inj := fault.New(spec, faultSeed)
	wrapped := inj.WrapStall(cfg.Stall)
	if wrapped != nil && cfg.Stall == nil {
		// An injected stall is a deliberate failure, not an occupancy
		// accounting mode: measuring how a length-budgeting
		// discipline degrades under it is the point, so the
		// length-aware guard does not apply.
		cfg.AllowLengthAwareStalls = true
	}
	cfg.Stall = wrapped
	cfg.Source = inj.WrapSource(cfg.Source, cfg.Flows)
	var chk *check.EngineChecker
	if o.Check {
		chk = check.NewEngineChecker(cfg.Flows)
		chk.Recorder.Register(obs.Default())
		if watchdog <= 0 {
			watchdog = spec.WatchdogBudget()
		}
		chk.Watchdog = check.NewWatchdog(watchdog)
		chk.Wire(cfg)
		if errs, ok := cfg.Scheduler.(*core.ERR); ok {
			errs.SetTrace(chk)
		}
	}
	return inj, chk, nil
}

// runEngine runs an engine job built from cfg for the given cycles
// under o (see wire), failing with the checker's report.
func (o EngineOptions) runEngine(cfg engine.Config, faultSeed uint64, cycles int64) error {
	inj, chk, err := o.wire(&cfg, faultSeed, 0)
	if err != nil {
		return err
	}
	e, err := engine.NewEngine(cfg)
	if err != nil {
		return err
	}
	if chk != nil {
		chk.Attach(e, cfg.Scheduler)
	}
	_, err = runChecked(e, chk, cycles, false)
	o.record(e, inj)
	return err
}

// record accumulates what an engine job did: the injector's tallies
// and the engine's malformed-packet rejections into the obs registry,
// so fault activity shows up in run manifests and the debug endpoint,
// and the engine's source polls into the collector.
func (o EngineOptions) record(e *engine.Engine, inj *fault.Injector) {
	registerFaultCounters(obs.Default(), inj.Counters(), e.Rejected())
	if o.Collector != nil {
		o.Collector.SourcePolls.Add(e.SourcePolls())
	}
}

// registerFaultCounters accumulates an injector's tallies (and the
// engine's malformed-packet rejections) into reg.
func registerFaultCounters(reg *obs.Registry, c fault.Counters, rejected int64) {
	if c == (fault.Counters{}) && rejected == 0 {
		return
	}
	reg.Counter("fault.stall_cycles").Add(c.StallCycles)
	reg.Counter("fault.dropped_flits").Add(c.Dropped)
	reg.Counter("fault.corrupted_flits").Add(c.Corrupted)
	reg.Counter("fault.malformed_packets").Add(c.Malformed)
	reg.Counter("fault.rejected_packets").Add(rejected)
}

// runChecked steps the engine n cycles — with drain set, only until
// its backlog empties — auditing every cycle when a checker is
// attached. It returns the cycles stepped and fails with the checker's
// structured report on any violation, stopping early when the deadlock
// watchdog trips.
func runChecked(e *engine.Engine, chk *check.EngineChecker, n int64, drain bool) (int64, error) {
	if chk == nil {
		if drain {
			stepped, _ := e.RunUntilDrained(n)
			return stepped, nil
		}
		e.Run(n)
		return n, nil
	}
	var i int64
	for ; i < n && !(drain && e.Backlog() == 0); i++ {
		e.Step()
		chk.Tick()
		if chk.Watchdog.Tripped() {
			return i + 1, chk.Err()
		}
	}
	return i, chk.Err()
}

// runGrid runs a grid's jobs under its options: on the worker pool,
// reporting progress and, when a checkpoint path is set, recording to
// a checkpoint keyed on the grid's name and params, so a checkpoint of
// a different grid is refused.
func runGrid[T any](name string, params any, o Options, jobs []exec.Job[T], extra ...exec.Option) ([]T, error) {
	opts := append([]exec.Option{exec.WithProgress(o.Progress)}, extra...)
	if o.Checkpoint != "" {
		sig, err := exec.Signature(name, params)
		if err != nil {
			return nil, err
		}
		cp, err := exec.OpenCheckpoint(o.Checkpoint, sig, o.Resume)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		opts = append(opts, exec.WithCheckpoint(cp))
	}
	return exec.Run(jobs, o.Workers, opts...)
}
