package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Table1Params parameterises the empirical check attached to the
// paper's Table 1. The workload is the Figure 4 one (8 flows, skewed
// rates and lengths, oversubscribed so everything is backlogged);
// the fairness measure is taken over the second half of the run,
// after the warm-up transient, as the max over all sub-intervals.
type Table1Params struct {
	// Fig4 is the workload, and its options run the per-discipline
	// jobs.
	Fig4 Fig4Params
}

// DefaultTable1Params returns paper-scale parameters.
func DefaultTable1Params() Table1Params {
	return Table1Params{Fig4: DefaultFig4Params()}
}

// Table1Row is one discipline's row: the analytic bounds from the
// paper's Table 1 next to the measured fairness.
type Table1Row struct {
	Discipline string
	// FairnessBound is the paper's relative fairness bound, as a
	// formula string ("3m", "Max + 2m", "m", "inf").
	FairnessBound string
	// BoundFlits is the bound evaluated at the workload's m and Max
	// (0 when the bound is infinite).
	BoundFlits int64
	// MeasuredFM is the measured fairness measure, in flits, over the
	// second half of the run.
	MeasuredFM int64
	// Complexity is the work complexity from the paper's Table 1.
	Complexity string
}

// Table1Result is the reproduced table.
type Table1Result struct {
	Params Table1Params
	// M is the largest packet that actually arrived (the paper's m);
	// Max is the largest that may arrive (128 in this workload).
	M, Max int64
	Rows   []Table1Row
}

// RunTable1 measures the fairness of every Table 1 discipline on the
// identical workload.
func RunTable1(p Table1Params) (*Table1Result, error) {
	type mk struct {
		name, bound, complexity string
		pkt                     func() sched.Scheduler
		flit                    func() sched.FlitScheduler
		boundFn                 func(m, max int64) int64
	}
	mks := []mk{
		{name: "PBRR", bound: "inf", complexity: "O(1)",
			pkt: func() sched.Scheduler { return sched.NewPBRR() }},
		{name: "FCFS", bound: "inf", complexity: "O(1)",
			pkt: func() sched.Scheduler { return sched.NewFCFS() }},
		{name: "FQ (WFQ)", bound: "m", complexity: "O(log n)",
			pkt:     func() sched.Scheduler { return sched.NewWFQ(nil) },
			boundFn: func(m, _ int64) int64 { return check.FQFairnessBound(m) }},
		{name: "DRR", bound: "Max + 2m", complexity: "O(1)",
			pkt:     func() sched.Scheduler { return sched.NewDRR(p.Fig4.DRRQuantum, nil) },
			boundFn: check.DRRFairnessBound},
		{name: "ERR", bound: "3m", complexity: "O(1)",
			pkt:     func() sched.Scheduler { return core.New() },
			boundFn: func(m, _ int64) int64 { return check.ERRFairnessBound(m) }},
	}
	// One job per discipline, all on the identical workload; the
	// measured FM and the largest arrived packet reduce in submission
	// order afterwards (m is a max, so it is order-independent anyway).
	// Fields are exported so the result round-trips the JSONL
	// checkpoint.
	type disc struct {
		FM     int64
		MaxLen int64
	}
	jobs := make([]exec.Job[disc], len(mks))
	for i, m := range mks {
		i, m := i, m
		jobs[i] = func() (disc, error) {
			ft := metrics.NewFairnessTracker(p.Fig4.Flows)
			var maxLen int64
			window := p.Fig4.Cycles / 2
			cfg := engine.Config{
				Flows:  p.Fig4.Flows,
				Source: fig4Source(p.Fig4),
				OnFlit: func(cycle int64, flow int) {
					if cycle >= window {
						ft.Serve(flow, 1)
					}
				},
				OnDeparture: func(pk flit.Packet, cycle, occ int64) {
					if int64(pk.Length) > maxLen {
						maxLen = int64(pk.Length)
					}
				},
			}
			if m.pkt != nil {
				cfg.Scheduler = m.pkt()
			} else {
				cfg.FlitSched = m.flit()
			}
			if err := p.Fig4.runEngine(cfg, faultSeed(p.Fig4.Seed, i), p.Fig4.Cycles); err != nil {
				return disc{}, err
			}
			return disc{FM: ft.FM(), MaxLen: maxLen}, nil
		}
	}
	discs, err := runGrid("table1", p, p.Fig4.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Params: p, Max: 128}
	for i, m := range mks {
		if discs[i].MaxLen > res.M {
			res.M = discs[i].MaxLen
		}
		res.Rows = append(res.Rows, Table1Row{
			Discipline:    m.name,
			FairnessBound: m.bound,
			MeasuredFM:    discs[i].FM,
			Complexity:    m.complexity,
		})
	}
	// Evaluate the numeric bounds with the workload's final m.
	for i, m := range mks {
		if m.boundFn != nil {
			res.Rows[i].BoundFlits = m.boundFn(res.M, res.Max)
		}
	}
	return res, nil
}

// Render writes the table.
func (r *Table1Result) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 1 — fairness measure and work complexity (m=%d, Max=%d flits)\n", r.M, r.Max)
	fmt.Fprintln(tw, "Discipline\tFairness bound\tBound (flits)\tMeasured FM (flits)\tComplexity")
	for _, row := range r.Rows {
		bound := "inf"
		if row.BoundFlits > 0 {
			bound = fmt.Sprintf("%d", row.BoundFlits)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\n",
			row.Discipline, row.FairnessBound, bound, row.MeasuredFM, row.Complexity)
	}
	return tw.Flush()
}
