package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// Fig6ExtParams parameterises the extension sweep behind the paper's
// closing observation: "when larger size packets are less likely than
// smaller size packets ... ERR achieves better fairness than DRR".
// We make the likelihood of large packets an explicit knob with a
// bimodal length distribution — Short-flit packets with probability
// 1-PLarge, Max-flit packets with probability PLarge — and sweep
// PLarge. DRR's quantum must be provisioned for Max whether or not
// big packets show up; ERR adapts to what actually arrives, so the
// fairness gap widens as PLarge shrinks.
type Fig6ExtParams struct {
	Flows     int
	Cycles    int64
	Short     int
	Max       int
	PLarges   []float64
	Intervals int
	Seed      uint64
	EngineOptions
}

// DefaultFig6ExtParams returns defaults.
func DefaultFig6ExtParams() Fig6ExtParams {
	return Fig6ExtParams{
		Flows:     6,
		Cycles:    1_000_000,
		Short:     4,
		Max:       64,
		PLarges:   []float64{0.5, 0.2, 0.1, 0.05, 0.02, 0.01},
		Intervals: 5_000,
		Seed:      1,
	}
}

// Fig6ExtResult holds average relative fairness (bytes) per
// discipline per large-packet probability.
type Fig6ExtResult struct {
	Params Fig6ExtParams
	// AvgFMERR[i] and AvgFMDRR[i] correspond to PLarges[i].
	AvgFMERR []float64
	AvgFMDRR []float64
}

// RunFig6Ext runs the sweep.
func RunFig6Ext(p Fig6ExtParams) (*Fig6ExtResult, error) {
	// Two jobs (ERR, DRR) per probability point; both disciplines of a
	// point build the identical workload from the shared seed.
	mks := []func() sched.Scheduler{
		func() sched.Scheduler { return core.New() },
		func() sched.Scheduler { return sched.NewDRR(int64(p.Max), nil) },
	}
	jobs := make([]exec.Job[float64], 0, 2*len(p.PLarges))
	for _, pl := range p.PLarges {
		dist := rng.Bimodal{Short: p.Short, Long: p.Max, PShort: 1 - pl}
		for _, mk := range mks {
			mk, job := mk, len(jobs)
			jobs = append(jobs, func() (float64, error) {
				src := rng.New(p.Seed)
				sources := make([]traffic.Source, p.Flows)
				for f := 0; f < p.Flows; f++ {
					sources[f] = traffic.NewBacklogged(f, 4, dist, src.Split())
				}
				sim, err := p.runSim(SimConfig{
					Flows:     p.Flows,
					Scheduler: mk(),
					Source:    traffic.NewMulti(sources...),
					Cycles:    p.Cycles,
					WithLog:   true,
				}, p.Seed, job)
				if err != nil {
					return 0, err
				}
				return sim.Log.AvgFMRandomIntervals(p.Intervals, src.Split()) * 8, nil
			})
		}
	}
	fms, err := runGrid("fig6ext", p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig6ExtResult{Params: p}
	for i := range p.PLarges {
		res.AvgFMERR = append(res.AvgFMERR, fms[2*i])
		res.AvgFMDRR = append(res.AvgFMDRR, fms[2*i+1])
	}
	return res, nil
}

// Render writes the sweep as a line chart plus CSV.
func (r *Fig6ExtResult) Render(w io.Writer) error {
	series := []plot.Series{
		{Name: "ERR", X: r.Params.PLarges, Y: r.AvgFMERR},
		{Name: "DRR", X: r.Params.PLarges, Y: r.AvgFMDRR},
	}
	title := fmt.Sprintf("Figure 6 extension: avg relative fairness (bytes) vs P(large packet), %d flows",
		r.Params.Flows)
	if err := plot.Lines(w, title, series, 64, 14); err != nil {
		return err
	}
	rows := make([][]float64, len(r.Params.PLarges))
	for i, x := range r.Params.PLarges {
		gap := 0.0
		if r.AvgFMERR[i] > 0 {
			gap = r.AvgFMDRR[i] / r.AvgFMERR[i]
		}
		rows[i] = []float64{x, r.AvgFMERR[i], r.AvgFMDRR[i], gap}
	}
	return plot.CSV(w, []string{"p_large", "ERR", "DRR", "DRR_over_ERR"}, rows)
}
