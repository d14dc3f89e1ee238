package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

// ScaleParams parameterises the large-torus saturation sweep behind
// BENCH_scale.json: K x K tori from hundreds to a million routers,
// stepped under three workload lanes (uniform random, hotspot, and
// uniform destinations with bounded-Pareto packet lengths), measuring
// ns/cycle/router, the arena and live-heap footprint per router, and
// the tile-boundary share of the commit. A second lane family re-runs
// the smallest torus across worker counts for the speedup-vs-workers
// curve. Wall-clock numbers are machine-dependent by nature; the
// simulation artifacts inside each point (delivered packets, latency)
// stay deterministic per seed.
type ScaleParams struct {
	// Ks are the torus edges to sweep, e.g. 256, 512, 1024.
	Ks       []int
	VCs      int
	BufFlits int
	// Tile is noc.Config.Tile (0 = the K-derived default).
	Tile int
	// Rate is the per-node injection probability per cycle. Uniform
	// traffic on a big torus saturates at tiny per-node rates (the
	// average path is K/2 hops), so any non-trivial Rate measures the
	// saturated regime; MaxPending bounds the backlog memory.
	Rate float64
	// RouterCycles is the per-point work budget: a K x K point steps
	// max(MinCycles, RouterCycles/K²) measured cycles, so every point
	// costs roughly the same router-cycles and the million-router
	// lane stays tractable on one machine.
	RouterCycles int64
	MinCycles    int64
	MinLen       int
	MaxLen       int
	// ParetoAlpha/ParetoMax shape the bounded-Pareto length lane
	// (lengths on [MinLen, ParetoMax]).
	ParetoAlpha float64
	ParetoMax   int
	// HotFrac is the hotspot lane's probability of addressing the
	// center node instead of a uniform destination.
	HotFrac float64
	// StepWorkers are the worker counts of the speedup-vs-workers
	// lanes, run on the smallest torus in Ks (1 = serial stepping).
	StepWorkers []int
	Seed        uint64
	// Shard/Of split the point grid round-robin across processes
	// (exec.WithShard): each process runs the same parameters with
	// its own -checkpoint file, then exec.MergeCheckpoints and one
	// resumed unsharded run recover the full result byte-identically.
	// Excluded from the grid signature — every shard shares it.
	Shard int `json:"-"`
	Of    int `json:"-"`
	// Options: Check is refused. Workers is the grid pool for the
	// sweep points themselves; keep it 1 when Ks includes a
	// million-router lane, as two such meshes alive at once double a
	// multi-GB footprint.
	Options
}

// DefaultScaleParams returns the BENCH_scale.json configuration:
// 256x256 -> 1024x1024 tori, three workload lanes each, and worker
// lanes 1/2/4/8 on the 256x256 torus.
func DefaultScaleParams() ScaleParams {
	return ScaleParams{
		Ks:           []int{256, 512, 1024},
		VCs:          2,
		BufFlits:     2,
		Rate:         0.02,
		RouterCycles: 100_000_000,
		MinCycles:    96,
		MinLen:       1,
		MaxLen:       8,
		ParetoAlpha:  1.2,
		ParetoMax:    64,
		HotFrac:      0.05,
		StepWorkers:  []int{1, 2, 4, 8},
		Seed:         1,
		Options:      Options{Workers: 1},
	}
}

// ScalePoint is one measured point of the sweep. Exported fields
// round-trip the JSONL checkpoint.
type ScalePoint struct {
	K       int
	Lane    string // uniform | hotspot | pareto | workers-N
	Workers int    // stepping workers (1 = serial)
	Cycles  int64
	// Wall-clock stepping cost (injector included, warm excluded).
	NsPerCycle       float64
	NsPerCycleRouter float64
	// ArenaBytesPerRouter is the flat router-arena footprint
	// (noc.Mesh.BytesPerRouter); HeapBytesPerRouter is the measured
	// live-heap growth of building the whole mesh divided by K² —
	// arena plus everything the arena does not manage (schedulers,
	// effect buffers, injection state).
	ArenaBytesPerRouter int64
	HeapBytesPerRouter  int64
	TileEdge            int
	Tiles               int
	// CrossShardShare is the fraction of router-target commit
	// effects that crossed a tile boundary during the measured
	// window (the serialized share of the commit).
	CrossShardShare float64
	// Deterministic simulation artifacts (per seed).
	DeliveredPackets int64
	MeanLatency      float64
}

// ScaleResult holds every measured point plus the host facts needed
// to read the wall-clock columns honestly.
type ScaleResult struct {
	Params     ScaleParams
	Cores      int // runtime.NumCPU of the measuring host
	GOMAXPROCS int
	Points     []ScalePoint
}

// scaleLanes returns the workload lanes of the K-sweep.
func scaleLanes(p ScaleParams, k int) []struct {
	name    string
	pattern func(nodes int) noc.Pattern
	lengths rng.LengthDist
} {
	uniform := func(nodes int) noc.Pattern { return noc.Uniform{Nodes: nodes} }
	return []struct {
		name    string
		pattern func(nodes int) noc.Pattern
		lengths rng.LengthDist
	}{
		{"uniform", uniform, rng.NewUniform(p.MinLen, p.MaxLen)},
		{"hotspot", func(nodes int) noc.Pattern {
			return noc.Hotspot{Nodes: nodes, Node: (k/2)*k + k/2, Frac: p.HotFrac}
		}, rng.NewUniform(p.MinLen, p.MaxLen)},
		{"pareto", uniform, rng.BoundedPareto{Alpha: p.ParetoAlpha, Lo: p.MinLen, Hi: p.ParetoMax}},
	}
}

// scaleCycles returns the measured cycle count of a K x K point.
func (p ScaleParams) scaleCycles(k int) int64 {
	c := p.RouterCycles / int64(k*k)
	if c < p.MinCycles {
		c = p.MinCycles
	}
	return c
}

// runScalePoint builds one torus, warms it, and measures the stepping
// cost. workers > 1 attaches a pool for tile-parallel stepping.
func runScalePoint(p ScaleParams, k, workers int, lane string,
	pattern noc.Pattern, lengths rng.LengthDist, seed uint64) (ScalePoint, error) {
	// Live-heap growth of the whole mesh: everything NewMesh
	// allocates, arena and non-arena alike.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := noc.NewMesh(noc.Config{
		K: k, VCs: p.VCs, BufFlits: p.BufFlits, Torus: true, Tile: p.Tile,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		return ScalePoint{}, err
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heapPer := int64(after.HeapAlloc-before.HeapAlloc) / int64(k*k)

	m.RegisterObs(obs.Default())
	if _, _, err := m.Protect(p.Faults, rng.Derive(seed, 0xfa), false); err != nil {
		return ScalePoint{}, err
	}
	if workers > 1 {
		pool := exec.NewPool(workers)
		defer pool.Close()
		m.SetPool(pool)
	}
	inj := noc.NewInjector(m, p.Rate, pattern, lengths, rng.New(seed))
	inj.MaxPending = 2

	cycles := p.scaleCycles(k)
	warm := cycles / 2
	for c := int64(0); c < warm; c++ {
		inj.Step()
		m.Step()
	}
	cross0 := m.CrossShardEffects()
	computes0 := obs.Default().Counter("noc.router_computes").Value()
	t0 := time.Now()
	for c := int64(0); c < cycles; c++ {
		inj.Step()
		m.Step()
	}
	elapsed := time.Since(t0)
	cross := m.CrossShardEffects() - cross0
	computes := obs.Default().Counter("noc.router_computes").Value() - computes0

	var delivered int64
	for n := 0; n < m.Nodes(); n++ {
		delivered += m.DeliveredPackets[n]
	}
	nsPerCycle := float64(elapsed.Nanoseconds()) / float64(cycles)
	share := 0.0
	if computes > 0 {
		share = float64(cross) / float64(computes)
	}
	return ScalePoint{
		K:                   k,
		Lane:                lane,
		Workers:             workers,
		Cycles:              cycles,
		NsPerCycle:          nsPerCycle,
		NsPerCycleRouter:    nsPerCycle / float64(k*k),
		ArenaBytesPerRouter: m.BytesPerRouter(),
		HeapBytesPerRouter:  heapPer,
		TileEdge:            m.TileEdge(),
		Tiles:               m.Tiles(),
		CrossShardShare:     share,
		DeliveredPackets:    delivered,
		MeanLatency:         m.Latency.Mean(),
	}, nil
}

// RunScale runs the sweep: every K x lane point serially-stepped,
// then the worker lanes on the smallest torus. Points checkpoint and
// shard exactly like any other grid (see ScaleParams.Shard).
func RunScale(p ScaleParams) (*ScaleResult, error) {
	if p.Check {
		return nil, fmt.Errorf("experiments: scale does not support -check (per-sink stream recording at 10^6 routers)")
	}
	if len(p.Ks) == 0 {
		return nil, fmt.Errorf("experiments: scale needs at least one torus edge")
	}
	var jobs []exec.Job[ScalePoint]
	for _, k := range p.Ks {
		for _, lane := range scaleLanes(p, k) {
			k, lane, job := k, lane, len(jobs)
			jobs = append(jobs, func() (ScalePoint, error) {
				return runScalePoint(p, k, 1, lane.name,
					lane.pattern(k*k), lane.lengths, rng.Derive(p.Seed, uint64(job)))
			})
		}
	}
	for _, w := range p.StepWorkers {
		w := w
		k := p.Ks[0]
		// Every worker lane shares one seed (derived from a fixed
		// label, not the job index): the lanes are the SAME
		// simulation stepped under different pool sizes, so their
		// delivered/latency columns must come out identical — the
		// determinism evidence — while the wall-clock columns
		// isolate the parallel-commit overhead.
		jobs = append(jobs, func() (ScalePoint, error) {
			return runScalePoint(p, k, w, fmt.Sprintf("workers-%d", w),
				noc.Uniform{Nodes: k * k}, rng.NewUniform(p.MinLen, p.MaxLen),
				rng.Derive(p.Seed, 0x577ab))
		})
	}
	points, err := runGrid("scale", p, p.Options, jobs, exec.WithShard(p.Shard, p.Of))
	if err != nil {
		return nil, err
	}
	return &ScaleResult{
		Params:     p,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	}, nil
}

// Render writes the sweep as a fixed-width table. A zero-valued row
// (K == 0) is a point owned by another shard of a sharded run; merge
// the per-shard checkpoints and resume to render the full table.
func (r *ScaleResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Torus scale sweep — cores=%d GOMAXPROCS=%d (wall-clock columns are host-dependent)\n%-6s %-10s %-8s %-8s %14s %14s %10s %10s %7s %10s %12s %10s\n",
		r.Cores, r.GOMAXPROCS,
		"K", "lane", "workers", "cycles", "ns/cycle", "ns/cyc/router",
		"arenaB/r", "heapB/r", "tile", "xtile%", "delivered", "latency"); err != nil {
		return err
	}
	for _, pt := range r.Points {
		if pt.K == 0 {
			if _, err := fmt.Fprintf(w, "%-6s (point owned by another shard; merge checkpoints to fill)\n", "-"); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%-6d %-10s %-8d %-8d %14.0f %14.3f %10d %10d %7d %9.2f%% %12d %10.1f\n",
			pt.K, pt.Lane, pt.Workers, pt.Cycles, pt.NsPerCycle, pt.NsPerCycleRouter,
			pt.ArenaBytesPerRouter, pt.HeapBytesPerRouter, pt.TileEdge,
			100*pt.CrossShardShare, pt.DeliveredPackets, pt.MeanLatency); err != nil {
			return err
		}
	}
	return nil
}

// RunInfo implements the manifest hook. Seeds lists the per-point
// derived seeds; Cycles totals the measured windows (warm excluded).
func (r *ScaleResult) RunInfo() obs.RunInfo {
	p := r.Params
	grid := len(p.Ks) * 3
	seeds := make([]uint64, grid+len(p.StepWorkers))
	for i := 0; i < grid; i++ {
		seeds[i] = rng.Derive(p.Seed, uint64(i))
	}
	for i := grid; i < len(seeds); i++ {
		// Worker lanes share one seed — same simulation, different
		// pool size (see RunScale).
		seeds[i] = rng.Derive(p.Seed, 0x577ab)
	}
	var cycles int64
	for _, k := range p.Ks {
		cycles += 3 * p.scaleCycles(k)
	}
	cycles += int64(len(p.StepWorkers)) * p.scaleCycles(p.Ks[0])
	return obs.RunInfo{
		Experiment: "scale",
		Seeds:      seeds,
		Workers:    exec.Workers(p.Workers),
		Cycles:     cycles,
	}
}
