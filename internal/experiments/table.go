package experiments

import (
	"fmt"
	"io"

	"repro/internal/exec"
)

// This file is the experiment table: every named experiment of
// cmd/errsim, the artifact cmd/reproduce writes from it, its
// defaults, how -cycles and -quick set its run length, and which run
// options it honors. Both commands resolve names here and nowhere
// else.

// Result is what every experiment returns: it renders as ASCII plus
// CSV, and every result but a checkpoint merge's also reports its
// manifest facts through a RunInfo method.
type Result interface {
	Render(io.Writer) error
}

// Config is what a command chooses for one run of a table entry.
type Config struct {
	Seed uint64
	// Cycles replaces the entry's main run length (0 = its default).
	Cycles int64
	// Quick scales the default run length down for a smoke
	// reproduction: the main length is divided by ten, except that
	// fig5 runs 2 repeats instead and fig6 also averages 2000
	// intervals.
	Quick bool
	// Intervals (fig6, fig6ext) and Repeats (fig5) replace those
	// experiments' averaging counts (0 = default).
	Intervals, Repeats int
	// EngineOptions are handed to every runner whose params carry
	// them. Workers, Progress and Collector are dropped where a runner
	// has none; any other option the entry does not honor is refused.
	EngineOptions
	// Shard and Of run one round-robin share of scale's grid (see
	// ScaleParams.Shard); Merge instead merges these per-shard
	// checkpoints into Checkpoint, signed for the grid a run under the
	// same Config executes.
	Shard, Of int
	Merge     []string
}

// length applies Cycles or Quick to a main run length.
func (c Config) length(n *int64) {
	switch {
	case c.Cycles > 0:
		*n = c.Cycles
	case c.Quick:
		*n /= 10
	}
}

// option is a run option a table entry may honor.
type option uint8

const (
	optFaults option = 1 << iota
	optCheck
	optCheckpoint
	optTrace // the single-server engine flight recorder
	optShard // Shard, Of and Merge

	grid       = optFaults | optCheck | optCheckpoint
	engineGrid = grid | optTrace
)

// Experiment is one entry of the table.
type Experiment struct {
	// Names are the -exp names that select the entry. The first is
	// canonical: the artifact's stem, and the grid name that -merge
	// signs scale's checkpoints with.
	Names []string
	// File is the artifact cmd/reproduce writes ("" = errsim only).
	File   string
	honors option
	// build returns the params that name runs under c and the call
	// running them.
	build func(name string, c Config) (params any, run func() (Result, error))
}

// panel maps a figure's -exp name to its sub-figure: "fig4b" -> "b",
// "fig4" -> "all".
func panel(name string) string {
	if len(name) == len("fig4a") {
		return name[4:]
	}
	return "all"
}

// table lists the experiments in the order cmd/reproduce writes
// their artifacts.
var table = []Experiment{
	{Names: []string{"table1"}, File: "table1.txt", honors: engineGrid,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultTable1Params()
			p.Fig4.Seed, p.Fig4.EngineOptions = c.Seed, c.EngineOptions
			c.length(&p.Fig4.Cycles)
			return p, func() (Result, error) { return RunTable1(p) }
		}},
	{Names: []string{"fig4", "fig4a", "fig4b", "fig4c", "fig4d"}, File: "fig4.txt", honors: engineGrid,
		build: func(name string, c Config) (any, func() (Result, error)) {
			p := DefaultFig4Params()
			p.Seed, p.EngineOptions = c.Seed, c.EngineOptions
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunFig4(p, panel(name)) }
		}},
	{Names: []string{"fig5", "fig5a", "fig5b"}, File: "fig5.txt", honors: engineGrid,
		build: func(name string, c Config) (any, func() (Result, error)) {
			p := DefaultFig5Params()
			p.Seed, p.EngineOptions = c.Seed, c.EngineOptions
			if c.Cycles > 0 {
				p.BurstCycles = c.Cycles
			}
			if c.Quick {
				p.Repeats = 2
			}
			if c.Repeats > 0 {
				p.Repeats = c.Repeats
			}
			return p, func() (Result, error) { return RunFig5(p, panel(name)) }
		}},
	{Names: []string{"fig6"}, File: "fig6.txt", honors: engineGrid,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultFig6Params()
			p.Seed, p.EngineOptions = c.Seed, c.EngineOptions
			c.length(&p.Cycles)
			if c.Quick {
				p.Intervals = 2000
			}
			if c.Intervals > 0 {
				p.Intervals = c.Intervals
			}
			return p, func() (Result, error) { return RunFig6(p) }
		}},
	{Names: []string{"fig6ext"}, File: "fig6ext.txt", honors: engineGrid,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultFig6ExtParams()
			p.Seed, p.EngineOptions = c.Seed, c.EngineOptions
			c.length(&p.Cycles)
			if c.Intervals > 0 {
				p.Intervals = c.Intervals
			}
			return p, func() (Result, error) { return RunFig6Ext(p) }
		}},
	{Names: []string{"occupancy"}, File: "occupancy.txt",
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultAblationOccupancyParams()
			p.Seed = c.Seed
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunAblationOccupancy(p) }
		}},
	{Names: []string{"screset"}, File: "screset.txt",
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultAblationSurplusResetParams()
			p.Seed = c.Seed
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunAblationSurplusReset(p) }
		}},
	{Names: []string{"weighted"}, File: "weighted.txt", honors: engineGrid &^ optCheckpoint,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultWeightedParams()
			p.Seed, p.EngineOptions = c.Seed, c.EngineOptions
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunWeighted(p) }
		}},
	{Names: []string{"gap"}, File: "gap.txt", honors: grid,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultGapParams()
			p.Seed, p.Options = c.Seed, c.Options
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunGap(p) }
		}},
	{Names: []string{"lr"}, File: "lr.txt",
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultLRParams()
			p.Seed = c.Seed
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunLR(p) }
		}},
	{Names: []string{"parkinglot"}, File: "parkinglot.txt", honors: grid,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultParkingLotParams()
			p.Seed, p.Options = c.Seed, c.Options
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunParkingLot(p) }
		}},
	{Names: []string{"nocsweep", "nocsweep-torus"}, File: "nocsweep.txt", honors: grid,
		build: func(name string, c Config) (any, func() (Result, error)) {
			p := DefaultNoCSweepParams()
			p.Seed, p.Options = c.Seed, c.Options
			p.Torus = name == "nocsweep-torus"
			c.length(&p.WarmCycles)
			return p, func() (Result, error) { return RunNoCSweep(p) }
		}},
	{Names: []string{"bounds"}, honors: grid &^ optFaults,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultBoundsParams()
			p.Seed, p.Options = c.Seed, c.Options
			c.length(&p.Cycles)
			return p, func() (Result, error) { return RunBounds(p) }
		}},
	{Names: []string{"scale"}, honors: grid&^optCheck | optShard,
		build: func(_ string, c Config) (any, func() (Result, error)) {
			p := DefaultScaleParams()
			p.Seed, p.Options = c.Seed, c.Options
			p.Shard, p.Of = c.Shard, c.Of
			if c.Cycles > 0 {
				// A flat per-point length instead of the router-cycle
				// budget (quick runs, CI smoke).
				p.RouterCycles, p.MinCycles = 0, c.Cycles
			} else if c.Quick {
				p.RouterCycles /= 10
			}
			return p, func() (Result, error) { return RunScale(p) }
		}},
}

// Table returns the experiment table, in artifact order.
func Table() []Experiment { return table }

// Names returns every -exp name, in table order.
func Names() []string {
	var names []string
	for _, e := range table {
		names = append(names, e.Names...)
	}
	return names
}

// Lookup returns the entry that the -exp name selects.
func Lookup(name string) (*Experiment, bool) {
	for i := range table {
		for _, n := range table[i].Names {
			if n == name {
				return &table[i], true
			}
		}
	}
	return nil, false
}

// Run runs the experiment that name (one of e.Names) selects under c,
// or with c.Merge set merges those checkpoints into c.Checkpoint. A
// run option that e does not honor is refused with an error naming
// the experiment.
func (e *Experiment) Run(name string, c Config) (Result, error) {
	if err := e.check(name, c); err != nil {
		return nil, err
	}
	params, run := e.build(name, c)
	if len(c.Merge) == 0 {
		return run()
	}
	if c.Checkpoint == "" {
		return nil, fmt.Errorf("-merge requires -checkpoint (the merge destination)")
	}
	sig, err := exec.Signature(e.Names[0], params)
	if err != nil {
		return nil, err
	}
	n, err := exec.MergeCheckpoints(c.Checkpoint, sig, c.Merge...)
	if err != nil {
		return nil, err
	}
	return merged(fmt.Sprintf("merged %d records from %d shard checkpoints into %s\n",
		n, len(c.Merge), c.Checkpoint)), nil
}

// check refuses a count outside its range and then the first run
// option c sets that e does not honor, naming each by its errsim flag.
func (e *Experiment) check(name string, c Config) error {
	switch {
	case c.Cycles < 0:
		return fmt.Errorf("-cycles %d: below 0 (0 = the experiment's default)", c.Cycles)
	case c.Intervals < 0:
		return fmt.Errorf("-intervals %d: below 0 (0 = the experiment's default)", c.Intervals)
	case c.Repeats < 0:
		return fmt.Errorf("-repeats %d: below 0 (0 = the experiment's default)", c.Repeats)
	case c.Of < 0:
		return fmt.Errorf("-of %d: below 0 (0 = no sharding)", c.Of)
	case c.Shard < 0 || c.Shard >= max(c.Of, 1):
		return fmt.Errorf("-shard %d: outside [0, %d) for -of %d", c.Shard, max(c.Of, 1), c.Of)
	}
	for _, o := range []struct {
		opt  option
		set  bool
		flag string
	}{
		{optFaults, c.Faults != "", "-faults"},
		{optCheck, c.Check, "-check"},
		{optCheckpoint, c.Checkpoint != "" || c.Resume, "-checkpoint"},
		{optTrace, c.Trace != nil, "-trace-out"},
		{optShard, c.Of > 0 || len(c.Merge) > 0, "-shard/-of/-merge"},
	} {
		if o.set && e.honors&o.opt == 0 {
			return fmt.Errorf("experiment %q does not support %s", name, o.flag)
		}
	}
	return nil
}

// merged reports a checkpoint merge.
type merged string

// Render implements Result.
func (m merged) Render(w io.Writer) error {
	_, err := io.WriteString(w, string(m))
	return err
}
