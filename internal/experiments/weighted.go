package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// WeightedParams parameterises the weighted-ERR extension experiment
// (the differentiated-services scenario the paper's introduction
// motivates: "customer-specific differentiated services in the
// Internet, or in parallel systems that are used, for example, as
// video-servers"). Three service classes with weights 1:2:4 share one
// output; all classes stay backlogged; throughput must split in
// proportion to the weights and each class's delay must reflect its
// share.
type WeightedParams struct {
	Cycles  int64
	Weights []int64
	Seed    uint64
	// EngineOptions run the single simulation as a one-job grid.
	// Checkpointing is refused: the raw result does not round-trip
	// JSON, and there is no grid to resume.
	EngineOptions
}

// DefaultWeightedParams returns defaults.
func DefaultWeightedParams() WeightedParams {
	return WeightedParams{Cycles: 1_000_000, Weights: []int64{1, 2, 4}, Seed: 1}
}

// WeightedResult holds the per-class shares.
type WeightedResult struct {
	Params WeightedParams
	// Flits[i] is the service received by class i; Share[i] the
	// fraction of the total; WantShare[i] the weight-proportional
	// target.
	Flits     []int64
	Share     []float64
	WantShare []float64
	// MeanDelay[i] is class i's mean packet delay in cycles.
	MeanDelay []float64
}

// RunWeighted runs the weighted-ERR experiment.
func RunWeighted(p WeightedParams) (*WeightedResult, error) {
	n := len(p.Weights)
	if n < 2 {
		return nil, fmt.Errorf("experiments: weighted run needs >= 2 classes")
	}
	if p.Checkpoint != "" {
		return nil, fmt.Errorf("experiments: weighted run does not support checkpointing (single simulation, nothing to resume)")
	}
	sims, err := runGrid("weighted", p, p.Options, []exec.Job[*SimResult]{func() (*SimResult, error) {
		e := core.NewWeighted(func(f int) int64 { return p.Weights[f] })
		src := rng.New(p.Seed)
		sources := make([]traffic.Source, n)
		for f := 0; f < n; f++ {
			sources[f] = traffic.NewBacklogged(f, 4, rng.NewUniform(1, 32), src.Split())
		}
		return p.runSim(SimConfig{
			Flows:     n,
			Scheduler: e,
			Source:    traffic.NewMulti(sources...),
			Cycles:    p.Cycles,
		}, p.Seed, 0)
	}})
	if err != nil {
		return nil, err
	}
	sim := sims[0]
	res := &WeightedResult{Params: p}
	var total, wsum int64
	for f := 0; f < n; f++ {
		total += sim.Throughput.Flits(f)
		wsum += p.Weights[f]
	}
	for f := 0; f < n; f++ {
		res.Flits = append(res.Flits, sim.Throughput.Flits(f))
		res.Share = append(res.Share, float64(sim.Throughput.Flits(f))/float64(total))
		res.WantShare = append(res.WantShare, float64(p.Weights[f])/float64(wsum))
		res.MeanDelay = append(res.MeanDelay, sim.Delays.MeanOf(f))
	}
	return res, nil
}

// Render writes the per-class table.
func (r *WeightedResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Weighted ERR (extension) — %d cycles, backlogged classes\n", r.Params.Cycles)
	fmt.Fprintln(tw, "class\tweight\tflits\tshare\ttarget share\tmean delay (cycles)")
	for f := range r.Flits {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4f\t%.1f\n",
			f, r.Params.Weights[f], r.Flits[f], r.Share[f], r.WantShare[f], r.MeanDelay[f])
	}
	return tw.Flush()
}
