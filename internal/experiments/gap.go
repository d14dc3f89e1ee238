package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// GapParams parameterises the inter-service gap experiment, a
// short-term fairness lens the paper's round analysis implies: for a
// continuously backlogged flow under ERR, the wait between two
// consecutive service opportunities is one round, which Theorem 2
// bounds in service terms. We measure, per discipline, the worst gap
// (in cycles) between consecutive flits of each flow on a backlogged
// workload — the scheduler-induced jitter a latency-sensitive flow
// (the paper's video-server motivation) actually experiences.
type GapParams struct {
	Flows  int
	Cycles int64
	Seed   uint64
	Options
}

// DefaultGapParams returns defaults.
func DefaultGapParams() GapParams {
	return GapParams{Flows: 8, Cycles: 1_000_000, Seed: 1}
}

// GapResult holds, per discipline, the largest inter-flit service gap
// over all flows and the mean of the per-flow worst gaps.
type GapResult struct {
	Params      GapParams
	Disciplines []string
	MaxGap      []int64
	MeanWorst   []float64
}

// RunGap runs the sweep over the O(1) disciplines plus WFQ.
func RunGap(p GapParams) (*GapResult, error) {
	mks := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"ERR", func() sched.Scheduler { return core.New() }},
		{"DRR", func() sched.Scheduler { return sched.NewDRR(64, nil) }},
		{"PBRR", func() sched.Scheduler { return sched.NewPBRR() }},
		{"FCFS", func() sched.Scheduler { return sched.NewFCFS() }},
		{"WFQ", func() sched.Scheduler { return sched.NewWFQ(nil) }},
	}
	// One job per discipline, each building the identical backlogged
	// workload from the shared seed. Fields are exported so the result
	// round-trips the JSONL checkpoint.
	type gaps struct {
		Max  int64
		Mean float64
	}
	jobs := make([]exec.Job[gaps], len(mks))
	for i, m := range mks {
		i, m := i, m
		jobs[i] = func() (gaps, error) {
			src := rng.New(p.Seed)
			sources := make([]traffic.Source, p.Flows)
			for f := 0; f < p.Flows; f++ {
				sources[f] = traffic.NewBacklogged(f, 4, rng.NewUniform(1, 64), src.Split())
			}
			last := make([]int64, p.Flows)
			worst := make([]int64, p.Flows)
			for f := range last {
				last[f] = -1
			}
			cfg := engine.Config{
				Flows:     p.Flows,
				Scheduler: m.mk(),
				Source:    traffic.NewMulti(sources...),
				OnFlit: func(cycle int64, flow int) {
					if last[flow] >= 0 {
						if g := cycle - last[flow]; g > worst[flow] {
							worst[flow] = g
						}
					}
					last[flow] = cycle
				},
			}
			o := EngineOptions{Options: p.Options}
			if err := o.runEngine(cfg, faultSeed(p.Seed, i), p.Cycles); err != nil {
				return gaps{}, err
			}
			var max int64
			var sum float64
			for _, w := range worst {
				if w > max {
					max = w
				}
				sum += float64(w)
			}
			return gaps{Max: max, Mean: sum / float64(p.Flows)}, nil
		}
	}
	results, err := runGrid("gap", p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &GapResult{Params: p}
	for i, m := range mks {
		res.Disciplines = append(res.Disciplines, m.name)
		res.MaxGap = append(res.MaxGap, results[i].Max)
		res.MeanWorst = append(res.MeanWorst, results[i].Mean)
	}
	return res, nil
}

// Render writes the gap table.
func (r *GapResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Inter-service gap (scheduler jitter), %d backlogged flows, %d cycles\n",
		r.Params.Flows, r.Params.Cycles)
	fmt.Fprintln(tw, "Discipline\tworst gap (cycles)\tmean per-flow worst gap")
	for i, d := range r.Disciplines {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\n", d, r.MaxGap[i], r.MeanWorst[i])
	}
	return tw.Flush()
}
