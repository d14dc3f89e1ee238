package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/bounds"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// This file is the analytic-bounds sweep: for every (scheduler, flow
// count) cell it provisions a flow set whose arrival rates are a
// fixed fraction of the rates the bounds analysis guarantees, runs
// the engine with the bounds.Checker attached, and fails the run on
// any observed delay or backlog above its bound. Deriving the rates
// from the bounds package itself makes every cell stable by
// construction, for every discipline, at every flow count.

// BoundsSchedulers lists the disciplines the sweep covers, in
// rendering order. Each has both a scheduler constructor
// (boundsScheduler) and a service-curve family (bounds.ParseDiscipline).
var BoundsSchedulers = []string{"ERR", "WRR", "IWRR", "DRR", "DRR-OPT"}

// boundsScheduler builds the named scheduler for a bounds
// configuration: WRR/IWRR take the per-flow weights, DRR the per-flow
// quanta, ERR is the paper's unweighted discipline.
func boundsScheduler(name string, cfg bounds.Config) (sched.Scheduler, error) {
	weight := func(flow int) int { return cfg.Flows[flow].Weight }
	quantum := func(flow int) int64 { return cfg.Flows[flow].Quantum }
	switch name {
	case "ERR":
		return core.New(), nil
	case "WRR":
		return sched.NewWRR(weight), nil
	case "IWRR":
		return sched.NewIWRR(weight), nil
	case "DRR":
		return sched.NewDRR(0, quantum), nil
	case "DRR-OPT":
		quanta := make([]int64, len(cfg.Flows))
		for i := range cfg.Flows {
			quanta[i] = cfg.Flows[i].Quantum
		}
		return sched.NewOptDRR(quanta), nil
	}
	return nil, fmt.Errorf("experiments: unknown bounds scheduler %q", name)
}

// BoundsParams parameterises the bounds sweep.
type BoundsParams struct {
	// FlowCounts are the grid's flow-count points.
	FlowCounts []int
	// Cycles is each cell's run length.
	Cycles int64
	// Seed feeds the per-cell derived traffic seeds.
	Seed uint64
	// Util is each flow's arrival rate as a fraction of its
	// bounds-guaranteed rate (< EnvRate for stability).
	Util float64
	// EnvRate is each flow's declared envelope rate as a fraction of
	// its guaranteed rate. Keeping it below 1 makes every bound
	// finite; keeping it above Util gives the measured burst a
	// negative drift, so the bounds stay tight.
	EnvRate float64
	// Schedulers restricts the sweep (nil = BoundsSchedulers).
	Schedulers []string
	// Options: Faults is refused, the bounds assume clean arrivals.
	Options
}

// DefaultBoundsParams returns the standard sweep: every discipline at
// 8 and 16 flows.
func DefaultBoundsParams() BoundsParams {
	return BoundsParams{
		FlowCounts: []int{8, 16},
		Cycles:     200_000,
		Seed:       1,
		Util:       0.7,
		EnvRate:    0.9,
	}
}

// boundsFlowClasses cycles four packet-length classes and four
// weights across the flow set, so every cell mixes short and long
// packets and light and heavy weights.
var boundsFlowClasses = []struct {
	lmin, lmax, weight int
}{
	{8, 16, 1},
	{16, 32, 2},
	{24, 48, 3},
	{32, 64, 4},
}

// boundsConfig assembles the bounds.Config of one cell: n flows from
// the cycling classes, DRR quanta w*lmax (or optimised for DRR-OPT),
// and arrival envelopes at the given fractions of each flow's
// guaranteed rate under the named scheduler.
func boundsConfig(schedName string, n int, util, envRate float64) (bounds.Config, error) {
	disc, err := bounds.ParseDiscipline(schedName)
	if err != nil {
		return bounds.Config{}, err
	}
	cfg := bounds.Config{C: 1, Flows: make([]bounds.FlowSpec, n)}
	var frame int64
	for i := range cfg.Flows {
		cl := boundsFlowClasses[i%len(boundsFlowClasses)]
		cfg.Flows[i] = bounds.FlowSpec{
			Weight:  cl.weight,
			Quantum: int64(cl.weight) * int64(cl.lmax),
			LMin:    cl.lmin,
			LMax:    cl.lmax,
		}
		frame += cfg.Flows[i].Quantum
	}
	setEnvelopes := func() {
		for i := range cfg.Flows {
			r := cfg.GuaranteedRate(disc, i)
			cfg.Flows[i].Arrival = bounds.TokenBucket{
				Sigma: float64(cfg.Flows[i].LMax),
				Rho:   envRate * r,
			}
		}
	}
	setEnvelopes()
	if schedName == "DRR-OPT" {
		// Optimise within the same frame the plain-DRR cell uses, so
		// the two cells' bounds are directly comparable; then refresh
		// the envelopes for the new guaranteed rates.
		quanta := bounds.OptimizeQuanta(cfg, frame)
		for i := range cfg.Flows {
			cfg.Flows[i].Quantum = quanta[i]
		}
		setEnvelopes()
	}
	return cfg, nil
}

// boundsSource builds the cell's arrival processes: per flow, a
// Bernoulli packet process at util times the guaranteed rate, with
// uniform lengths over the flow's declared range.
func boundsSource(cfg bounds.Config, disc bounds.Discipline, util float64, seed uint64) traffic.Source {
	src := rng.New(seed)
	sources := make([]traffic.Source, len(cfg.Flows))
	for i, f := range cfg.Flows {
		mean := float64(f.LMin+f.LMax) / 2
		pktRate := util * cfg.GuaranteedRate(disc, i) / mean
		sources[i] = traffic.NewBernoulli(i, pktRate, rng.NewUniform(f.LMin, f.LMax), src.Split())
	}
	return traffic.NewMulti(sources...)
}

// BoundsCell is one (scheduler, flow count) outcome: the per-flow
// bounds next to the observed extremes.
type BoundsCell struct {
	Scheduler string
	Flows     int
	Reports   []bounds.FlowReport
}

// BoundsResult is the sweep outcome.
type BoundsResult struct {
	Params BoundsParams
	Cells  []BoundsCell
}

// RunBounds runs the sweep. Any bounds violation fails the offending
// cell's job with the recorder's structured cycle-stamped report, so
// a violating sweep returns an error (and errsim exits nonzero —
// the CI gate).
func RunBounds(p BoundsParams) (*BoundsResult, error) {
	if p.Faults != "" {
		return nil, fmt.Errorf("experiments: bounds sweep requires fault-free arrivals (-faults given)")
	}
	scheds := p.Schedulers
	if len(scheds) == 0 {
		scheds = BoundsSchedulers
	}
	type cellKey struct {
		sched string
		flows int
	}
	var keys []cellKey
	for _, s := range scheds {
		for _, n := range p.FlowCounts {
			keys = append(keys, cellKey{s, n})
		}
	}
	jobs := make([]exec.Job[BoundsCell], len(keys))
	for i, k := range keys {
		i, k := i, k
		jobs[i] = func() (BoundsCell, error) {
			cfg, err := boundsConfig(k.sched, k.flows, p.Util, p.EnvRate)
			if err != nil {
				return BoundsCell{}, err
			}
			disc, err := bounds.ParseDiscipline(k.sched)
			if err != nil {
				return BoundsCell{}, err
			}
			s, err := boundsScheduler(k.sched, cfg)
			if err != nil {
				return BoundsCell{}, err
			}
			ecfg := engine.Config{
				Flows:     k.flows,
				Scheduler: s,
				Source:    boundsSource(cfg, disc, p.Util, rng.Derive(p.Seed, uint64(i))),
			}
			inj, chk, err := EngineOptions{Options: p.Options}.wire(&ecfg, faultSeed(p.Seed, i), 0)
			if err != nil {
				return BoundsCell{}, err
			}
			rec := check.NewRecorder().Register(obs.Default())
			if chk != nil {
				rec = chk.Recorder
			}
			bc, err := bounds.NewChecker(cfg, k.sched, rec)
			if err != nil {
				return BoundsCell{}, err
			}
			bc.Wire(&ecfg)
			e, err := engine.NewEngine(ecfg)
			if err != nil {
				return BoundsCell{}, err
			}
			if chk != nil {
				chk.Attach(e, ecfg.Scheduler)
			}
			if _, err := runChecked(e, chk, p.Cycles, false); err != nil {
				return BoundsCell{}, fmt.Errorf("experiments: bounds %s/%d: %w", k.sched, k.flows, err)
			}
			registerFaultCounters(obs.Default(), inj.Counters(), e.Rejected())
			if chk == nil {
				if err := rec.Err(); err != nil {
					return BoundsCell{}, fmt.Errorf("experiments: bounds %s/%d: %w", k.sched, k.flows, err)
				}
			}
			return BoundsCell{Scheduler: k.sched, Flows: k.flows, Reports: bc.Report()}, nil
		}
	}
	cells, err := runGrid("bounds", p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	return &BoundsResult{Params: p, Cells: cells}, nil
}

// Render writes per-cell tables of bounds vs observations, then a CSV
// block for external plotting.
func (r *BoundsResult) Render(w io.Writer) error {
	var viol int64
	for _, c := range r.Cells {
		for _, fr := range c.Reports {
			viol += fr.Violations
		}
	}
	fmt.Fprintf(w, "Analytic delay/backlog bounds vs observation — util %.2f, envelope %.2f, %d cycles/cell, %d violation(s)\n",
		r.Params.Util, r.Params.EnvRate, r.Params.Cycles, viol)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, c := range r.Cells {
		fmt.Fprintf(tw, "\n%s, %d flows\n", c.Scheduler, c.Flows)
		fmt.Fprintln(tw, "flow\trho\tsigma^\tR\tD-bound\tD-max\tB-bound\tB-max\tpkts\tviol")
		for _, fr := range c.Reports {
			fmt.Fprintf(tw, "%d\t%.4f\t%.1f\t%.4f\t%.1f\t%d\t%.1f\t%d\t%d\t%d\n",
				fr.Flow, fr.Rho, fr.SigmaHat, fr.Rate,
				fr.DelayBound, fr.MaxDelay, fr.BackBound, fr.MaxBacklog,
				fr.Departures, fr.Violations)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nscheduler,flows,flow,rho,sigma_hat,rate,delay_bound,max_delay,backlog_bound,max_backlog,departures,violations")
	for _, c := range r.Cells {
		for _, fr := range c.Reports {
			fmt.Fprintf(w, "%s,%d,%d,%.6f,%.3f,%.6f,%.3f,%d,%.3f,%d,%d,%d\n",
				c.Scheduler, c.Flows, fr.Flow, fr.Rho, fr.SigmaHat, fr.Rate,
				fr.DelayBound, fr.MaxDelay, fr.BackBound, fr.MaxBacklog,
				fr.Departures, fr.Violations)
		}
	}
	return nil
}

// Violations returns the total bounds violations across the sweep
// (always zero when RunBounds returned without error; kept for
// callers inspecting checkpoint-resumed partial results).
func (r *BoundsResult) Violations() int64 {
	var n int64
	for _, c := range r.Cells {
		for _, fr := range c.Reports {
			n += fr.Violations
		}
	}
	return n
}
