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

// Fig6Params parameterises the Figure 6 experiment: for each number
// of flows n in [MinFlows, MaxFlows], all flows are kept backlogged
// with packet lengths exponentially distributed (rate Lambda,
// truncated to [1, MaxLen]) for Cycles cycles, and the relative
// fairness measure is averaged over Intervals randomly chosen
// intervals. ERR (bound 3m) is compared against DRR (bound Max + 2m,
// quantum = Max): with large packets rare, m's typical influence is
// small and ERR comes out fairer.
type Fig6Params struct {
	MinFlows, MaxFlows int
	Cycles             int64
	Lambda             float64
	MaxLen             int
	Intervals          int
	Seed               uint64
	EngineOptions
}

// DefaultFig6Params returns the paper's parameters (4 million cycles,
// 10,000 intervals, lambda = 0.2 on [1, 64]).
func DefaultFig6Params() Fig6Params {
	return Fig6Params{
		MinFlows:  2,
		MaxFlows:  10,
		Cycles:    4_000_000,
		Lambda:    0.2,
		MaxLen:    64,
		Intervals: 10_000,
		Seed:      1,
	}
}

// Fig6Result holds the average relative fairness (in bytes, like the
// paper's y-axis) per discipline per flow count.
type Fig6Result struct {
	Params      Fig6Params
	Flows       []int
	Disciplines []string
	// AvgFM[d][i] is the average relative fairness of discipline d at
	// Flows[i], in bytes.
	AvgFM [][]float64
}

// RunFig6 runs the sweep for ERR and DRR.
func RunFig6(p Fig6Params) (*Fig6Result, error) {
	mks := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"ERR", func() sched.Scheduler { return core.New() }},
		{"DRR", func() sched.Scheduler { return sched.NewDRR(int64(p.MaxLen), nil) }},
	}
	res := &Fig6Result{Params: p}
	for n := p.MinFlows; n <= p.MaxFlows; n++ {
		res.Flows = append(res.Flows, n)
	}
	// One job per discipline × flow count. A point's seed is derived
	// from its flow count only — both disciplines must see the
	// identical workload — and each job builds its own Source, so jobs
	// never share a stream.
	jobs := make([]exec.Job[float64], 0, len(mks)*len(res.Flows))
	for _, m := range mks {
		for _, n := range res.Flows {
			m, n, job := m, n, len(jobs)
			jobs = append(jobs, func() (float64, error) {
				src := rng.New(rng.Derive(p.Seed, uint64(n)))
				var sources []traffic.Source
				dist := rng.NewTruncExp(p.Lambda, 1, p.MaxLen)
				for f := 0; f < n; f++ {
					sources = append(sources, traffic.NewBacklogged(f, 4, dist, src.Split()))
				}
				sim, err := p.runSim(SimConfig{
					Flows:     n,
					Scheduler: m.mk(),
					Source:    traffic.NewMulti(sources...),
					Cycles:    p.Cycles,
					WithLog:   true,
				}, p.Seed, job)
				if err != nil {
					return 0, err
				}
				avgFlits := sim.Log.AvgFMRandomIntervals(p.Intervals, src.Split())
				return avgFlits * 8, nil // flits -> bytes, 8-byte flits
			})
		}
	}
	avgs, err := runGrid("fig6", p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	for d, m := range mks {
		res.Disciplines = append(res.Disciplines, m.name)
		res.AvgFM = append(res.AvgFM, avgs[d*len(res.Flows):(d+1)*len(res.Flows)])
	}
	return res, nil
}

// Render writes the fairness curves as an ASCII line chart plus CSV.
func (r *Fig6Result) Render(w io.Writer) error {
	xs := make([]float64, len(r.Flows))
	for i, n := range r.Flows {
		xs[i] = float64(n)
	}
	series := make([]plot.Series, len(r.Disciplines))
	for i, d := range r.Disciplines {
		series[i] = plot.Series{Name: d, X: xs, Y: r.AvgFM[i]}
	}
	title := fmt.Sprintf("Figure 6: average relative fairness (bytes) vs number of flows (%d intervals over %d cycles)",
		r.Params.Intervals, r.Params.Cycles)
	if err := plot.Lines(w, title, series, 64, 16); err != nil {
		return err
	}
	header := []string{"flows"}
	header = append(header, r.Disciplines...)
	rows := make([][]float64, len(r.Flows))
	for i := range r.Flows {
		row := []float64{xs[i]}
		for d := range r.Disciplines {
			row = append(row, r.AvgFM[d][i])
		}
		rows[i] = row
	}
	return plot.CSV(w, header, rows)
}
