// Command nocsim runs a k x k wormhole mesh network-on-chip with a
// selectable per-output arbitration discipline and synthetic traffic,
// reporting end-to-end latency and per-source throughput fairness —
// the paper's scheduler operating inside the network it was designed
// for.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wormhole"
)

func main() {
	var (
		k       = flag.Int("k", 4, "mesh radix (k x k nodes)")
		vcs     = flag.Int("vcs", 2, "virtual channels per port")
		buf     = flag.Int("buf", 8, "input VC buffer depth in flits")
		arb     = flag.String("arb", "err", "output arbitration: err, werr, pbrr")
		pattern = flag.String("pattern", "uniform", "traffic: uniform, hotspot, transpose")
		rate    = flag.Float64("rate", 0.02, "per-node injection rate (packets/cycle)")
		minLen  = flag.Int("minlen", 1, "minimum packet length (flits)")
		maxLen  = flag.Int("maxlen", 16, "maximum packet length (flits)")
		cycles  = flag.Int64("cycles", 100_000, "warm simulation cycles before draining")
		seed    = flag.Uint64("seed", 1, "random seed")
		torus   = flag.Bool("torus", false, "wraparound links with dateline VC switching")
		tile    = flag.Int("tile", 0, "commit tile edge in routers (0 = K-derived default); part of the simulated configuration — artifacts depend on it, never on -parallel-mesh")
		par     = flag.Int("parallel-mesh", 1, "shard mesh stepping across this many workers (1 = serial, 0 = GOMAXPROCS); output is identical at any setting")
		rf      noc.RunFlags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()
	if err := run(*k, *vcs, *buf, *tile, *arb, *pattern, *rate, *minLen, *maxLen, *cycles, *seed, *torus, *par, &rf); err != nil {
		fmt.Fprintf(os.Stderr, "nocsim: %v\n", err)
		os.Exit(1)
	}
}

func run(k, vcs, buf, tile int, arb, pattern string, rate float64, minLen, maxLen int, cycles int64, seed uint64, torus bool, parallel int, rf *noc.RunFlags) error {
	switch {
	case rate < 0 || rate > 1:
		return fmt.Errorf("-rate %g: outside [0, 1]", rate)
	case minLen < 1 || maxLen < minLen:
		return fmt.Errorf("-minlen %d, -maxlen %d: want 1 <= minlen <= maxlen", minLen, maxLen)
	case cycles < 0:
		return fmt.Errorf("-cycles %d: below 0", cycles)
	case vcs < 1 || vcs > wormhole.MaxVCs:
		return fmt.Errorf("-vcs %d: outside [1, %d]", vcs, wormhole.MaxVCs)
	case buf < 1:
		return fmt.Errorf("-buf %d: below 1", buf)
	}
	var newArb func() sched.Scheduler
	switch arb {
	case "err":
		newArb = func() sched.Scheduler { return core.New() }
	case "werr":
		// Local traffic gets double weight: an example of weighted ERR
		// prioritising injection over through-traffic.
		newArb = func() sched.Scheduler {
			return core.NewWeighted(func(flow int) int64 {
				if flow/vcs == noc.PortLocal {
					return 2
				}
				return 1
			})
		}
	case "pbrr":
		newArb = func() sched.Scheduler { return sched.NewPBRR() }
	default:
		return fmt.Errorf("unknown arbiter %q", arb)
	}

	m, err := noc.NewMesh(noc.Config{K: k, VCs: vcs, BufFlits: buf, NewArb: newArb, Torus: torus, Tile: tile})
	if err != nil {
		return err
	}
	m.RegisterObs(obs.Default())
	if parallel != 1 {
		pool := exec.NewPool(parallel)
		defer pool.Close()
		m.SetPool(pool)
	}
	finj, err := rf.Arm(m, seed)
	if err != nil {
		return err
	}

	var pat noc.Pattern
	switch pattern {
	case "uniform":
		pat = noc.Uniform{Nodes: m.Nodes()}
	case "hotspot":
		pat = noc.Hotspot{Nodes: m.Nodes(), Node: m.NodeID(k/2, k/2), Frac: 0.3}
	case "transpose":
		pat = noc.Transpose{K: k}
	default:
		return fmt.Errorf("unknown pattern %q", pattern)
	}

	src := rng.New(seed)
	inj := noc.NewInjector(m, rate, pat, rng.NewUniform(minLen, maxLen), src)
	inj.MaxPending = 8
	for c := int64(0); c < cycles; c++ {
		inj.Step()
		m.Step()
		if err := m.Wedged(); err != nil {
			return err
		}
	}
	drained := m.Drain(10 * cycles)
	if err := m.Wedged(); err != nil {
		return err
	}

	var injected, delivered int64
	flits := make([]float64, m.Nodes())
	labels := make([]string, m.Nodes())
	for n := 0; n < m.Nodes(); n++ {
		injected += inj.Injected[n]
		delivered += m.DeliveredPackets[n]
		flits[n] = float64(m.DeliveredFlits[n])
		x, y := m.Coords(n)
		labels[n] = fmt.Sprintf("(%d,%d)", x, y)
	}

	topo := "mesh"
	if torus {
		topo = "torus"
	}
	fmt.Printf("%s %dx%d, %d VCs, buf %d flits, arb=%s, pattern=%s, rate=%.3f\n",
		topo, k, k, vcs, buf, arb, pattern, rate)
	fmt.Printf("cycles: %d (+drain), injected: %d packets, delivered: %d, drained: %v\n",
		cycles, injected, delivered, drained)
	fmt.Printf("latency: mean %.1f cycles, min %.0f, max %.0f (n=%d)\n",
		m.Latency.Mean(), m.Latency.Min(), m.Latency.Max(), m.Latency.N())
	spread := stats.MaxAbsDiff(flits)
	fmt.Printf("per-source delivered flits: spread %.0f\n", spread)
	if cyc := obs.Default().Counter("noc.cycles").Value(); cyc > 0 {
		comp := obs.Default().Counter("noc.router_computes").Value()
		fmt.Printf("stepping: avg %.1f of %d routers active per cycle (high water %d)\n",
			float64(comp)/float64(cyc), m.Nodes(),
			obs.Default().Gauge("noc.active_routers_high_water").Value())
		mode := "work-list"
		if rf.Reference {
			mode = "full-scan"
		}
		cells := obs.Default().Counter("noc.cells_visited").Value()
		fmt.Printf("arbitration: %s, %.1f arbitration sites visited/cycle (mesh holds %d ports*VCs cells); %d idle cycles skipped\n",
			mode, float64(cells)/float64(cyc), m.Nodes()*m.Router(0).Ports()*vcs,
			obs.Default().Counter("noc.cycles_skipped").Value())
		crossShare := 0.0
		if comp > 0 {
			crossShare = float64(m.CrossShardEffects()) / float64(comp)
		}
		fmt.Printf("layout: %d B/router arena, %dx%d commit tiles (%d tiles), %.1f%% of router computes emitted cross-tile effects\n",
			m.BytesPerRouter(), m.TileEdge(), m.TileEdge(), m.Tiles(), 100*crossShare)
	}
	if fc := finj.Counters(); fc != (fault.Counters{}) {
		fmt.Printf("faults: %d stall cycles, %d dropped flits, %d corrupted flits",
			fc.StallCycles, fc.Dropped, fc.Corrupted)
		if fc.Malformed > 0 {
			fmt.Printf(", %d malformed packets", fc.Malformed)
		}
		fmt.Println()
	}
	fmt.Println()
	if err := plot.Bar(os.Stdout, "Delivered flits per source node", labels, flits, 50); err != nil {
		return err
	}
	return rf.Report(os.Stdout, m)
}
