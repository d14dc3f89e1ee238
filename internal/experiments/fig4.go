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

// Fig4Params parameterises the Figure 4 throughput-fairness
// experiments: 8 flows kept active for the whole run; the packet
// arrival rate into flow 3 is twice that of the other flows; packet
// lengths are U[1,64] flits except flow 2's, which are U[1,128];
// flits are 8 bytes and the output forwards one flit per cycle.
type Fig4Params struct {
	Flows  int
	Cycles int64
	Seed   uint64
	// Oversubscription is the ratio of total offered flit rate to the
	// output capacity. The paper requires every flow to stay active
	// ("we ensure that all the flows are active"), which needs every
	// individual flow's offered rate to exceed its fair share (1/8 of
	// capacity); with the Figure 4 rate mix that requires a total
	// oversubscription of at least ~1.3. The default 1.5 gives the
	// slowest flows a ~20% margin.
	Oversubscription float64
	// DRRQuantum is the quantum used by the DRR comparison; the
	// classical O(1) provisioning is Max = 128.
	DRRQuantum int64
	EngineOptions
}

// DefaultFig4Params returns the paper's parameters (4 million
// cycles).
func DefaultFig4Params() Fig4Params {
	return Fig4Params{
		Flows:            8,
		Cycles:           4_000_000,
		Seed:             1,
		Oversubscription: 1.5,
		DRRQuantum:       128,
	}
}

// Fig4Result holds per-flow transmitted KBytes for each compared
// discipline, keyed in the order the disciplines were run.
type Fig4Result struct {
	Params      Fig4Params
	Disciplines []string
	// KBytes[d][f] is the volume flow f transmitted under discipline
	// d, in KBytes (the paper's y-axis).
	KBytes [][]float64
}

// fig4Source builds the Figure 4 arrival process with a fresh
// deterministic stream, so every discipline sees the identical
// workload.
func fig4Source(p Fig4Params) traffic.Source {
	src := rng.New(p.Seed)
	// Mean lengths: U[1,64] -> 32.5 flits, U[1,128] -> 64.5 flits.
	// Total flit rate at base packet rate r:
	//   6 flows * 32.5r + 64.5r (flow 2) + 2r*32.5 (flow 3)
	// = (6*32.5 + 64.5 + 65) r = 324.5 r.
	r := p.Oversubscription / 324.5
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
	return traffic.NewMulti(sources...)
}

// RunFig4 runs ERR and the requested baselines on the identical
// workload and returns per-flow KBytes. panel selects the paper's
// sub-figure: "a" (PBRR), "b" (FBRR), "c" (FCFS), "d" (DRR), or
// "all".
func RunFig4(p Fig4Params, panel string) (*Fig4Result, error) {
	type run struct {
		name string
		pkt  func() sched.Scheduler
		flit func() sched.FlitScheduler
	}
	runs := []run{{name: "ERR", pkt: func() sched.Scheduler { return core.New() }}}
	add := func(rs ...run) { runs = append(runs, rs...) }
	switch panel {
	case "a":
		add(run{name: "PBRR", pkt: func() sched.Scheduler { return sched.NewPBRR() }})
	case "b":
		add(run{name: "FBRR", flit: func() sched.FlitScheduler { return sched.NewFBRR() }})
	case "c":
		add(run{name: "FCFS", pkt: func() sched.Scheduler { return sched.NewFCFS() }})
	case "d":
		add(run{name: "DRR", pkt: func() sched.Scheduler { return sched.NewDRR(p.DRRQuantum, nil) }})
	case "all":
		add(
			run{name: "PBRR", pkt: func() sched.Scheduler { return sched.NewPBRR() }},
			run{name: "FBRR", flit: func() sched.FlitScheduler { return sched.NewFBRR() }},
			run{name: "FCFS", pkt: func() sched.Scheduler { return sched.NewFCFS() }},
			run{name: "DRR", pkt: func() sched.Scheduler { return sched.NewDRR(p.DRRQuantum, nil) }},
		)
	default:
		return nil, fmt.Errorf("experiments: unknown Figure 4 panel %q", panel)
	}

	// One job per discipline; every job builds its own workload from
	// the shared seed, so all disciplines see the identical arrival
	// sequence whatever the worker count.
	jobs := make([]exec.Job[[]float64], len(runs))
	for i, r := range runs {
		i, r := i, r
		jobs[i] = func() ([]float64, error) {
			cfg := SimConfig{Flows: p.Flows, Source: fig4Source(p), Cycles: p.Cycles}
			if r.pkt != nil {
				cfg.Scheduler = r.pkt()
			} else {
				cfg.FlitSched = r.flit()
			}
			sim, err := p.runSim(cfg, p.Seed, i)
			if err != nil {
				return nil, err
			}
			kb := make([]float64, p.Flows)
			for f := 0; f < p.Flows; f++ {
				kb[f] = sim.Throughput.KBytes(f)
			}
			return kb, nil
		}
	}
	// The panel picks the disciplines behind the job indices, so it
	// names the grid.
	kbs, err := runGrid("fig4/"+panel, p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Params: p}
	for i, r := range runs {
		res.Disciplines = append(res.Disciplines, r.name)
		res.KBytes = append(res.KBytes, kbs[i])
	}
	return res, nil
}

// Render writes the result as per-discipline bar charts plus a CSV
// block.
func (r *Fig4Result) Render(w io.Writer) error {
	labels := make([]string, r.Params.Flows)
	for f := range labels {
		labels[f] = fmt.Sprintf("flow %d", f)
	}
	for i, d := range r.Disciplines {
		title := fmt.Sprintf("Figure 4: KBytes transmitted per flow — %s (%d cycles)", d, r.Params.Cycles)
		if err := plot.Bar(w, title, labels, r.KBytes[i], 50); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	header := []string{"flow"}
	header = append(header, r.Disciplines...)
	rows := make([][]float64, r.Params.Flows)
	for f := 0; f < r.Params.Flows; f++ {
		row := []float64{float64(f)}
		for i := range r.Disciplines {
			row = append(row, r.KBytes[i][f])
		}
		rows[f] = row
	}
	return plot.CSV(w, header, rows)
}
