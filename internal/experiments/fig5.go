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

// Fig5Params parameterises the Figure 5 delay experiments: 4 flows, a
// transient congestion burst of BurstCycles during which the total
// input rate exceeds the output rate by the swept intensity, then
// injection halts and the simulation runs until all queues drain.
// Packet delay is measured from enqueue to the dequeue of the last
// flit. As in Figure 4, flow 3 arrives at twice the packet rate and
// flow 2 sends U[1,128]-flit packets while the others send U[1,64].
type Fig5Params struct {
	Flows       int
	BurstCycles int64
	Seed        uint64
	// Intensities are the swept values of (sum of input rates) /
	// (output rate), the paper's x-axis from 1.0 to 1.3.
	Intensities []float64
	// Repeats averages each point over this many seeds.
	Repeats int
	EngineOptions
}

// DefaultFig5Params returns the paper's parameters.
func DefaultFig5Params() Fig5Params {
	return Fig5Params{
		Flows:       4,
		BurstCycles: 10_000,
		Seed:        1,
		Intensities: []float64{1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3},
		Repeats:     5,
	}
}

// Fig5Result holds the average packet delay per discipline per
// intensity.
type Fig5Result struct {
	Params      Fig5Params
	Disciplines []string
	// Delay[d][i] is the mean packet delay (cycles) of discipline d
	// at Intensities[i].
	Delay [][]float64
}

// fig5Source builds one burst workload at the given intensity.
func fig5Source(p Fig5Params, intensity float64, seed uint64) traffic.Source {
	src := rng.New(seed)
	// Total flit rate at base packet rate r:
	//   2 * 32.5 r (flows 0, 1) + 64.5 r (flow 2) + 2r * 32.5 (flow 3)
	// = 194.5 r  ==  intensity.
	r := intensity / 194.5
	var sources []traffic.Source
	for f := 0; f < p.Flows; f++ {
		rate := r
		dist := rng.LengthDist(rng.NewUniform(1, 64))
		if f == 2 {
			dist = rng.NewUniform(1, 128)
		}
		if f == 3 {
			rate = 2 * r
		}
		sources = append(sources, traffic.NewBernoulli(f, rate, dist, src.Split()))
	}
	return traffic.NewWindow(traffic.NewMulti(sources...), 0, p.BurstCycles)
}

// RunFig5 sweeps the congestion intensities for ERR and the panel's
// baseline ("a" = FCFS, "b" = PBRR, "all" = both plus DRR and FBRR
// for the near-equality observation in Section 5).
func RunFig5(p Fig5Params, panel string) (*Fig5Result, error) {
	type mk struct {
		name string
		pkt  func() sched.Scheduler
		flit func() sched.FlitScheduler
	}
	mks := []mk{{name: "ERR", pkt: func() sched.Scheduler { return core.New() }}}
	switch panel {
	case "a":
		mks = append(mks, mk{name: "FCFS", pkt: func() sched.Scheduler { return sched.NewFCFS() }})
	case "b":
		mks = append(mks, mk{name: "PBRR", pkt: func() sched.Scheduler { return sched.NewPBRR() }})
	case "all":
		mks = append(mks,
			mk{name: "FCFS", pkt: func() sched.Scheduler { return sched.NewFCFS() }},
			mk{name: "PBRR", pkt: func() sched.Scheduler { return sched.NewPBRR() }},
			mk{name: "DRR", pkt: func() sched.Scheduler { return sched.NewDRR(128, nil) }},
			mk{name: "FBRR", flit: func() sched.FlitScheduler { return sched.NewFBRR() }},
		)
	default:
		return nil, fmt.Errorf("experiments: unknown Figure 5 panel %q", panel)
	}
	repeats := p.Repeats
	if repeats < 1 {
		repeats = 1
	}
	// One job per discipline × intensity × repeat. The seed of a
	// repeat is derived from its repeat label, never from a stream
	// shared across jobs, so every repeat is reproducible in
	// isolation. Disciplines AND intensities deliberately share the
	// per-repeat seed: disciplines must face the identical workload,
	// and common random numbers across the intensity sweep keep the
	// delay curves monotone at modest repeat counts (the arrival
	// pattern is the same draw, only the rate scales).
	type rep struct {
		Mean float64
		OK   bool
	}
	idx := func(d, i, r int) int { return (d*len(p.Intensities)+i)*repeats + r }
	jobs := make([]exec.Job[rep], len(mks)*len(p.Intensities)*repeats)
	for d, m := range mks {
		for i, intensity := range p.Intensities {
			for r := 0; r < repeats; r++ {
				m, i, intensity, r := m, i, intensity, r
				job := idx(d, i, r)
				jobs[job] = func() (rep, error) {
					cfg := SimConfig{
						Flows:      p.Flows,
						Source:     fig5Source(p, intensity, rng.Derive(p.Seed, uint64(r))),
						Cycles:     p.BurstCycles,
						DrainAfter: true,
					}
					if m.pkt != nil {
						cfg.Scheduler = m.pkt()
					} else {
						cfg.FlitSched = m.flit()
					}
					sim, err := p.runSim(cfg, p.Seed, job)
					if err != nil {
						return rep{}, err
					}
					if sim.Delays.Count() == 0 {
						return rep{}, nil
					}
					return rep{Mean: sim.Delays.Mean(), OK: true}, nil
				}
			}
		}
	}
	reps, err := runGrid("fig5/"+panel, p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Params: p}
	for d, m := range mks {
		delays := make([]float64, len(p.Intensities))
		for i := range p.Intensities {
			sum, count := 0.0, 0.0
			for r := 0; r < repeats; r++ {
				if v := reps[idx(d, i, r)]; v.OK {
					sum += v.Mean
					count++
				}
			}
			if count > 0 {
				delays[i] = sum / count
			}
		}
		res.Disciplines = append(res.Disciplines, m.name)
		res.Delay = append(res.Delay, delays)
	}
	return res, nil
}

// Render writes the delay curves as an ASCII line chart plus CSV.
func (r *Fig5Result) Render(w io.Writer) error {
	series := make([]plot.Series, len(r.Disciplines))
	for i, d := range r.Disciplines {
		series[i] = plot.Series{Name: d, X: r.Params.Intensities, Y: r.Delay[i]}
	}
	title := fmt.Sprintf("Figure 5: average packet delay vs congestion intensity (burst %d cycles)",
		r.Params.BurstCycles)
	if err := plot.Lines(w, title, series, 64, 16); err != nil {
		return err
	}
	header := []string{"intensity"}
	header = append(header, r.Disciplines...)
	rows := make([][]float64, len(r.Params.Intensities))
	for i, x := range r.Params.Intensities {
		row := []float64{x}
		for d := range r.Disciplines {
			row = append(row, r.Delay[d][i])
		}
		rows[i] = row
	}
	return plot.CSV(w, header, rows)
}
