package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
)

// NoCSweepParams parameterises the network-level load-latency sweep:
// a K x K wormhole mesh (or torus) under uniform random traffic, with
// per-output-queue arbitration by ERR or PBRR, swept across injection
// rates. This is the canonical interconnection-network figure the
// paper's venue audience would draw for a new switch arbiter; it
// demonstrates the scheduler inside the multi-hop substrate.
type NoCSweepParams struct {
	K        int
	VCs      int
	BufFlits int
	Torus    bool
	// Rates are per-node injection probabilities per cycle.
	Rates []float64
	// WarmCycles per point, before the drain phase.
	WarmCycles int64
	MinLen     int
	MaxLen     int
	Seed       uint64
	// Options: fault directives address mesh nodes and their five
	// output ports (noc.Mesh.Protect); with Check set, every ejection
	// sink validates wormhole flit streams and a deadlock watchdog
	// dumps the channel-wait graph on a stall.
	Options
}

// DefaultNoCSweepParams returns defaults for a 4x4 mesh.
func DefaultNoCSweepParams() NoCSweepParams {
	return NoCSweepParams{
		K: 4, VCs: 2, BufFlits: 8,
		Rates:      []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05},
		WarmCycles: 50_000,
		MinLen:     1, MaxLen: 8,
		Seed: 1,
	}
}

// NoCSweepResult holds mean end-to-end latency per arbiter per rate.
type NoCSweepResult struct {
	Params      NoCSweepParams
	Disciplines []string
	// Latency[d][i] is the mean packet latency at Rates[i].
	Latency [][]float64
	// Delivered[d][i] is the accepted throughput in packets.
	Delivered [][]float64
}

// RunNoCSweep runs the sweep for ERR and PBRR arbitration.
func RunNoCSweep(p NoCSweepParams) (*NoCSweepResult, error) {
	mks := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"ERR", func() sched.Scheduler { return core.New() }},
		{"PBRR", func() sched.Scheduler { return sched.NewPBRR() }},
	}
	// One job per discipline × injection rate; a point's seed depends
	// only on the rate index so both arbiters face the same traffic.
	// Fields are exported so the result round-trips the JSONL
	// checkpoint.
	type point struct {
		Lat, Del float64
	}
	jobs := make([]exec.Job[point], 0, len(mks)*len(p.Rates))
	for _, m := range mks {
		for i, rate := range p.Rates {
			m, i, rate, job := m, i, rate, len(jobs)
			jobs = append(jobs, func() (point, error) {
				mesh, err := noc.NewMesh(noc.Config{
					K: p.K, VCs: p.VCs, BufFlits: p.BufFlits,
					Torus: p.Torus, NewArb: m.mk,
				})
				if err != nil {
					return point{}, err
				}
				finj, rec, err := mesh.Protect(p.Faults, faultSeed(p.Seed, job), p.Check)
				if err != nil {
					return point{}, err
				}
				src := rng.New(rng.Derive(p.Seed, uint64(i)))
				inj := noc.NewInjector(mesh, rate, noc.Uniform{Nodes: mesh.Nodes()},
					rng.NewUniform(p.MinLen, p.MaxLen), src)
				inj.MaxPending = 4
				for c := int64(0); c < p.WarmCycles && mesh.Wedged() == nil; c++ {
					inj.Step()
					mesh.Step()
				}
				mesh.Drain(20 * p.WarmCycles)
				if err := mesh.Wedged(); err != nil {
					return point{}, fmt.Errorf("experiments: nocsweep %w", err)
				}
				registerFaultCounters(obs.Default(), finj.Counters(), 0)
				if rec != nil {
					if err := rec.Err(); err != nil {
						return point{}, fmt.Errorf("experiments: nocsweep failed invariant checking: %w", err)
					}
				}
				var d int64
				for n := 0; n < mesh.Nodes(); n++ {
					d += mesh.DeliveredPackets[n]
				}
				return point{Lat: mesh.Latency.Mean(), Del: float64(d)}, nil
			})
		}
	}
	points, err := runGrid("nocsweep", p, p.Options, jobs)
	if err != nil {
		return nil, err
	}
	res := &NoCSweepResult{Params: p}
	for d, m := range mks {
		lats := make([]float64, len(p.Rates))
		dels := make([]float64, len(p.Rates))
		for i := range p.Rates {
			pt := points[d*len(p.Rates)+i]
			lats[i], dels[i] = pt.Lat, pt.Del
		}
		res.Disciplines = append(res.Disciplines, m.name)
		res.Latency = append(res.Latency, lats)
		res.Delivered = append(res.Delivered, dels)
	}
	return res, nil
}

// Render writes the latency curves and a CSV block.
func (r *NoCSweepResult) Render(w io.Writer) error {
	series := make([]plot.Series, len(r.Disciplines))
	for i, d := range r.Disciplines {
		series[i] = plot.Series{Name: d, X: r.Params.Rates, Y: r.Latency[i]}
	}
	topo := "mesh"
	if r.Params.Torus {
		topo = "torus"
	}
	title := fmt.Sprintf("NoC load-latency sweep — %dx%d %s, uniform traffic",
		r.Params.K, r.Params.K, topo)
	if err := plot.Lines(w, title, series, 64, 14); err != nil {
		return err
	}
	header := []string{"rate"}
	for _, d := range r.Disciplines {
		header = append(header, d+"_latency", d+"_delivered")
	}
	rows := make([][]float64, len(r.Params.Rates))
	for i, x := range r.Params.Rates {
		row := []float64{x}
		for d := range r.Disciplines {
			row = append(row, r.Latency[d][i], r.Delivered[d][i])
		}
		rows[i] = row
	}
	return plot.CSV(w, header, rows)
}
