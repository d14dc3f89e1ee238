// Command minsim runs an omega multistage interconnection network —
// the fabric class inside SP2-style switches for parallel systems —
// with a selectable per-output arbitration discipline, reporting
// per-source throughput into a hotspot terminal and end-to-end
// latency. The binary merge tree into the hotspot makes arbitration
// fairness compound visibly: shares are positional (sources that
// merge later get more — the parking-lot effect), but under ERR
// same-depth sources stay even regardless of packet length, while
// PBRR hands long-packet sources several times their peers' share.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/min"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
)

func main() {
	var (
		terminals = flag.Int("terminals", 8, "terminals (power of two >= 4)")
		vcs       = flag.Int("vcs", 2, "virtual channels per switch port")
		buf       = flag.Int("buf", 8, "input VC buffer depth in flits")
		arb       = flag.String("arb", "err", "arbitration: err, pbrr")
		hotspot   = flag.Int("hotspot", 0, "hotspot terminal all others flood")
		longIn    = flag.Int("longin", 3, "terminal whose packets are 8x longer (-1 disables)")
		cycles    = flag.Int64("cycles", 100_000, "simulation cycles")
		seed      = flag.Uint64("seed", 1, "random seed (packet lengths)")
	)
	flag.Parse()
	if err := run(*terminals, *vcs, *buf, *arb, *hotspot, *longIn, *cycles, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "minsim: %v\n", err)
		os.Exit(1)
	}
}

func run(terminals, vcs, buf int, arb string, hotspot, longIn int, cycles int64, seed uint64) error {
	var newArb func() sched.Scheduler
	switch arb {
	case "err":
		newArb = func() sched.Scheduler { return core.New() }
	case "pbrr":
		newArb = func() sched.Scheduler { return sched.NewPBRR() }
	default:
		return fmt.Errorf("unknown arbiter %q", arb)
	}
	net, err := min.NewOmega(min.Config{
		Terminals: terminals, VCs: vcs, BufFlits: buf, NewArb: newArb,
	})
	if err != nil {
		return err
	}
	if hotspot < 0 || hotspot >= terminals {
		return fmt.Errorf("-hotspot %d: no such terminal (0..%d)", hotspot, terminals-1)
	}
	if longIn < -1 || longIn >= terminals {
		return fmt.Errorf("-longin %d: no such terminal (0..%d, or -1 to disable)", longIn, terminals-1)
	}
	src := rng.New(seed)
	short := rng.NewUniform(1, 4)
	long := rng.NewUniform(8, 32)
	for c := int64(0); c < cycles; c++ {
		for term := 0; term < terminals; term++ {
			if term == hotspot || net.PendingAt(term) >= 2 {
				continue
			}
			dist := rng.LengthDist(short)
			if term == longIn {
				dist = long
			}
			net.Send(term, hotspot, dist.Draw(src))
		}
		net.Step()
	}
	fmt.Printf("omega %d terminals (%d stages), arb=%s, hotspot=%d, %d cycles\n",
		terminals, min.Stages(terminals), arb, hotspot, cycles)
	fmt.Printf("latency: mean %.1f cycles (n=%d)\n\n", net.Latency.Mean(), net.Latency.N())
	labels := make([]string, 0, terminals-1)
	flits := make([]float64, 0, terminals-1)
	for term := 0; term < terminals; term++ {
		if term == hotspot {
			continue
		}
		l := fmt.Sprintf("src %d", term)
		if term == longIn {
			l += " (8x len)"
		}
		labels = append(labels, l)
		flits = append(flits, float64(net.DeliveredFlits[term]))
	}
	return plot.Bar(os.Stdout, "Flits delivered to the hotspot per source", labels, flits, 50)
}
