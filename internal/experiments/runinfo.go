package experiments

import (
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file gathers the manifest hooks: every result type reports the
// facts a run manifest needs (experiment name, consumed seeds,
// resolved worker count, total configured simulation cycles) through
// a uniform RunInfo method, so the cmd layer can write JSONL
// manifests without per-experiment switch statements. Cycle totals
// count the configured main-run lengths of every grid job;
// data-dependent drain phases (Figure 5, nocsweep) are excluded.

// RunInfo implements the manifest hook.
func (r *Table1Result) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "table1",
		Seeds:      []uint64{r.Params.Fig4.Seed},
		Workers:    exec.Workers(r.Params.Fig4.Workers),
		Cycles:     int64(len(r.Rows)) * r.Params.Fig4.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *Fig4Result) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "fig4",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     int64(len(r.Disciplines)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook. Seeds lists the per-repeat
// derived seeds, the streams the workloads were actually built from.
func (r *Fig5Result) RunInfo() obs.RunInfo {
	p := r.Params
	repeats := p.Repeats
	if repeats < 1 {
		repeats = 1
	}
	seeds := make([]uint64, repeats)
	for i := range seeds {
		seeds[i] = rng.Derive(p.Seed, uint64(i))
	}
	return obs.RunInfo{
		Experiment: "fig5",
		Seeds:      seeds,
		Workers:    exec.Workers(p.Workers),
		Cycles:     int64(len(r.Disciplines)*len(p.Intensities)*repeats) * p.BurstCycles,
	}
}

// RunInfo implements the manifest hook. Seeds lists the per-point
// derived seeds (one per flow count, shared by both disciplines).
func (r *Fig6Result) RunInfo() obs.RunInfo {
	seeds := make([]uint64, len(r.Flows))
	for i, n := range r.Flows {
		seeds[i] = rng.Derive(r.Params.Seed, uint64(n))
	}
	return obs.RunInfo{
		Experiment: "fig6",
		Seeds:      seeds,
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     int64(len(r.Flows)*len(r.Disciplines)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *Fig6ExtResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "fig6ext",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     2 * int64(len(r.Params.PLarges)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *WeightedResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "weighted",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *GapResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "gap",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     int64(len(r.Disciplines)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook. The parking-lot workload is
// fully deterministic, so there are no seeds to record.
func (r *ParkingLotResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "parkinglot",
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     2 * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook. Seeds lists the per-rate
// derived seeds (shared by both arbiters); drain cycles are excluded.
func (r *NoCSweepResult) RunInfo() obs.RunInfo {
	p := r.Params
	name := "nocsweep"
	if p.Torus {
		name = "nocsweep-torus"
	}
	seeds := make([]uint64, len(p.Rates))
	for i := range seeds {
		seeds[i] = rng.Derive(p.Seed, uint64(i))
	}
	return obs.RunInfo{
		Experiment: name,
		Seeds:      seeds,
		Workers:    exec.Workers(p.Workers),
		Cycles:     int64(len(r.Disciplines)*len(p.Rates)) * p.WarmCycles,
	}
}

// RunInfo implements the manifest hook.
func (r *LRResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "lr",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    1,
		Cycles:     int64(len(r.Disciplines)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *AblationOccupancyResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "occupancy",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    1,
		Cycles:     int64(len(r.Disciplines)) * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *AblationSurplusResetResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "screset",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    1,
		Cycles:     2 * r.Params.Cycles,
	}
}

// RunInfo implements the manifest hook.
func (r *BoundsResult) RunInfo() obs.RunInfo {
	return obs.RunInfo{
		Experiment: "bounds",
		Seeds:      []uint64{r.Params.Seed},
		Workers:    exec.Workers(r.Params.Workers),
		Cycles:     int64(len(r.Cells)) * r.Params.Cycles,
	}
}
