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
// paper-scale parameters are the documented defaults of cmd/errsim.
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
	// queues empty (the Figure 5 protocol).
	DrainAfter bool
	// DrainBudget caps the drain phase (0 = 16x Cycles).
	DrainBudget int64
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
	// default, max(1<<16, 4x the longest configured stall window)).
	WatchdogCycles int64
}

// watchdogLimit picks the watchdog budget for a config: generous
// enough that a configured transient fault window cannot trip it.
func (cfg *SimConfig) watchdogLimit(spec *fault.Spec) int64 {
	if cfg.WatchdogCycles > 0 {
		return cfg.WatchdogCycles
	}
	limit := int64(1 << 16)
	if spec != nil {
		for _, d := range spec.Directives {
			if d.Kind == "stall" && d.Dur > 0 && 4*d.Dur > limit {
				limit = 4 * d.Dur
			}
		}
	}
	return limit
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
	if cfg.Collector != nil {
		cfg.Collector.Wire(&ecfg)
	}
	if cfg.Trace != nil {
		cfg.Trace.Wire(&ecfg.OnInject, &ecfg.OnDeparture)
	}

	spec, err := fault.Parse(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	inj := fault.New(spec, cfg.FaultSeed)
	wrapped := inj.WrapStall(ecfg.Stall)
	if wrapped != nil && ecfg.Stall == nil {
		// An injected stall is a deliberate failure, not an occupancy
		// accounting mode: measuring how a length-budgeting
		// discipline degrades under it is the point, so the
		// length-aware guard does not apply.
		ecfg.AllowLengthAwareStalls = true
	}
	ecfg.Stall = wrapped
	ecfg.Source = inj.WrapSource(ecfg.Source, cfg.Flows)

	var chk *check.EngineChecker
	if cfg.Check {
		chk = check.NewEngineChecker(cfg.Flows)
		chk.Recorder.Register(obs.Default())
		chk.Watchdog = check.NewWatchdog(cfg.watchdogLimit(spec))
		chk.Wire(&ecfg)
		if errs, ok := cfg.Scheduler.(*core.ERR); ok {
			errs.SetTrace(chk)
		}
	}

	e, err := engine.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		chk.Attach(e, cfg.Scheduler)
	}

	// run steps up to n cycles, auditing each one when checking is
	// enabled, and reports whether the watchdog ended the run early.
	run := func(n int64) (stepped int64, wedged bool) {
		if chk == nil {
			e.Run(n)
			return n, false
		}
		for ; stepped < n; stepped++ {
			e.Step()
			chk.Tick()
			if chk.Watchdog.Tripped() {
				return stepped + 1, true
			}
		}
		return stepped, false
	}
	finish := func() {
		res.Faults = inj.Counters()
		res.Rejected = e.Rejected()
		registerFaultCounters(obs.Default(), res.Faults, res.Rejected)
		if cfg.Collector != nil {
			cfg.Collector.SourcePolls.Add(e.SourcePolls())
		}
	}

	stepped, wedged := run(cfg.Cycles)
	res.Cycles = stepped
	if wedged {
		finish()
		return nil, fmt.Errorf("experiments: %s wedged: %w", res.Discipline, chk.Err())
	}
	if cfg.DrainAfter {
		budget := cfg.DrainBudget
		if budget == 0 {
			budget = 16 * cfg.Cycles
		}
		if chk == nil {
			extra, drained := e.RunUntilDrained(budget)
			res.Cycles += extra
			if !drained {
				return nil, fmt.Errorf("experiments: %s did not drain within %d cycles",
					res.Discipline, budget)
			}
		} else {
			var extra int64
			for extra = 0; extra < budget && e.Backlog() > 0; extra++ {
				e.Step()
				chk.Tick()
				if chk.Watchdog.Tripped() {
					res.Cycles += extra + 1
					finish()
					return nil, fmt.Errorf("experiments: %s wedged during drain: %w",
						res.Discipline, chk.Err())
				}
			}
			res.Cycles += extra
			if e.Backlog() > 0 {
				return nil, fmt.Errorf("experiments: %s did not drain within %d cycles",
					res.Discipline, budget)
			}
		}
	}
	finish()
	if chk != nil {
		if err := chk.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s failed invariant checking: %w", res.Discipline, err)
		}
	}
	return res, nil
}

// registerFaultCounters accumulates an injector's tallies (and the
// engine's malformed-packet rejections) into the obs registry, so
// fault activity shows up in run manifests and the debug endpoint
// alongside every other metric.
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

// Robustness bundles the fault-injection, invariant-checking and
// crash-resilience knobs shared by every grid runner; it is embedded
// in each runner's params struct.
type Robustness struct {
	// Faults is a fault directive string (see fault.Parse) injected
	// into every simulation of the grid ("" = fault-free). Faults
	// change results by design, so they participate in the checkpoint
	// grid signature.
	Faults string
	// Check enables the runtime invariant checker in every simulation
	// (see SimConfig.Check): a violation or a tripped deadlock
	// watchdog fails the job with a structured, cycle-stamped report.
	Check bool
	// Checkpoint is a JSONL checkpoint path enabling crash-resilient
	// grid execution: completed jobs are recorded as they finish, and
	// with Resume set a rerun skips them, producing byte-identical
	// aggregate output ("" = no checkpointing). Excluded from the
	// grid signature: resuming is the point.
	Checkpoint string `json:"-"`
	Resume     bool   `json:"-"`
}

// faultSeed derives the fault-randomness seed of grid job i, kept
// separate from the job's traffic seed so enabling faults never
// perturbs the arrival sequence.
func (r Robustness) faultSeed(base uint64, job int) uint64 {
	return rng.Derive(base, 0xfa0175, uint64(job))
}

// applyRobustness wires the fault injector and (when r.Check is set)
// the invariant checker into a raw engine.Config, for the runners
// that drive the engine directly instead of through RunSim. Call
// before engine.NewEngine; afterwards attach the checker with
// chk.Attach(e, cfg.Scheduler) and step with runChecked.
func applyRobustness(r Robustness, faultSeed uint64, cfg *engine.Config) (*fault.Injector, *check.EngineChecker, error) {
	spec, err := fault.Parse(r.Faults)
	if err != nil {
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
	if r.Check {
		chk = check.NewEngineChecker(cfg.Flows)
		chk.Recorder.Register(obs.Default())
		sc := SimConfig{}
		chk.Watchdog = check.NewWatchdog(sc.watchdogLimit(spec))
		chk.Wire(cfg)
		if errs, ok := cfg.Scheduler.(*core.ERR); ok {
			errs.SetTrace(chk)
		}
	}
	return inj, chk, nil
}

// runChecked steps the engine n cycles, auditing every cycle when a
// checker is attached, and fails with the checker's structured report
// on any violation (including a tripped deadlock watchdog).
func runChecked(e *engine.Engine, chk *check.EngineChecker, n int64) error {
	if chk == nil {
		e.Run(n)
		return nil
	}
	for i := int64(0); i < n; i++ {
		e.Step()
		chk.Tick()
		if chk.Watchdog.Tripped() {
			return chk.Err()
		}
	}
	return chk.Err()
}

// gridOptions assembles the exec options every grid runner shares:
// progress reporting plus, when a checkpoint path is configured,
// crash-resilient checkpoint/resume keyed on the runner's name and
// parameters (so a stale checkpoint from a different grid is
// refused). The returned closer must be called (deferred) when
// checkpointing is active; it is safe to call when nil is returned
// for it.
func gridOptions(name string, params any, checkpoint string, resume bool, progress exec.Progress) ([]exec.Option, func() error, error) {
	var opts []exec.Option
	if progress != nil {
		opts = append(opts, exec.WithProgress(progress))
	}
	closer := func() error { return nil }
	if checkpoint != "" {
		sig, err := exec.Signature(name, params)
		if err != nil {
			return nil, nil, err
		}
		cp, err := exec.OpenCheckpoint(checkpoint, sig, resume)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, exec.WithCheckpoint(cp))
		closer = cp.Close
	}
	return opts, closer, nil
}
