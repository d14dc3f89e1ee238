// Command switchsim drives a single wormhole switch (a one-router
// network on the noc kernel): several input ports contend for output
// ports through per-output-queue packet arbitration, with a
// configurable downstream drain pattern creating the unpredictable
// occupancies that motivate ERR. It reports per-input throughput on
// the contended output and the occupancy statistics the arbiter
// actually billed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/sched"
)

func main() {
	var (
		inputs = flag.Int("inputs", 4, "input ports contending for output 0")
		vcs    = flag.Int("vcs", 1, "virtual channels per port")
		buf    = flag.Int("buf", 16, "input VC buffer depth in flits")
		arb    = flag.String("arb", "err", "output arbitration: err, pbrr")
		minLen = flag.Int("minlen", 1, "minimum packet length (flits)")
		maxLen = flag.Int("maxlen", 32, "maximum packet length (flits)")
		bigIn  = flag.Int("bigin", 1, "input whose packets are 4x longer (-1 to disable)")
		drainP = flag.Float64("drain", 1.0, "probability the downstream sink drains a flit each cycle")
		cycles = flag.Int64("cycles", 200_000, "simulation cycles")
		seed   = flag.Uint64("seed", 1, "random seed")
		rf     noc.RunFlags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()
	if err := run(*inputs, *vcs, *buf, *arb, *minLen, *maxLen, *bigIn, *drainP, *cycles, *seed, &rf); err != nil {
		fmt.Fprintf(os.Stderr, "switchsim: %v\n", err)
		os.Exit(1)
	}
}

func run(inputs, vcs, buf int, arb string, minLen, maxLen, bigIn int, drainP float64, cycles int64, seed uint64, rf *noc.RunFlags) error {
	var newArb func() sched.Scheduler
	switch arb {
	case "err":
		newArb = func() sched.Scheduler { return core.New() }
	case "pbrr":
		newArb = func() sched.Scheduler { return sched.NewPBRR() }
	default:
		return fmt.Errorf("unknown arbiter %q", arb)
	}
	if bigIn != -1 && (bigIn < 1 || bigIn > inputs) {
		return fmt.Errorf("-bigin %d: no such input (1..%d, or -1 to disable)", bigIn, inputs)
	}
	// One router; terminal t is its port t. Terminal 0 is the contended
	// output, draining through an 8-flit sink; terminals 1..inputs are
	// the inputs, whose packets all route to it (their own outputs stay
	// idle).
	src := rng.New(seed)
	ports := inputs + 1
	g := noc.Graph{
		Routers:  1,
		Ports:    ports,
		Route:    func(_, dst int) int { return dst },
		NewArb:   func(int) func() sched.Scheduler { return newArb },
		VCs:      vcs,
		BufFlits: buf,
		Terminals: []noc.Terminal{{
			Inject:     noc.Port{Router: 0, Port: -1},
			Eject:      noc.Port{Router: 0, Port: 0},
			DrainFlits: 8,
			Drain:      func(int64) bool { return src.Bernoulli(drainP) },
		}},
	}
	for in := 1; in <= inputs; in++ {
		port := noc.Port{Router: 0, Port: in}
		g.Terminals = append(g.Terminals, noc.Terminal{Inject: port, Eject: port})
	}
	m, err := noc.NewGraph(g)
	if err != nil {
		return err
	}
	finj, err := rf.Arm(m, seed)
	if err != nil {
		return err
	}

	// Keep every input backlogged: a new packet whenever the last one
	// has entered the switch.
	dists := make([]rng.LengthDist, ports)
	for in := 1; in <= inputs; in++ {
		if in == bigIn {
			dists[in] = rng.NewUniform(minLen*4, maxLen*4)
		} else {
			dists[in] = rng.NewUniform(minLen, maxLen)
		}
	}
	for c := int64(0); c < cycles; c++ {
		for in := 1; in <= inputs; in++ {
			if m.PendingAt(in) == 0 {
				m.Send(in, 0, dists[in].Draw(src))
			}
		}
		m.Step()
		if err := m.Wedged(); err != nil {
			return err
		}
	}

	labels := make([]string, inputs)
	served := make([]float64, inputs)
	for i := range labels {
		labels[i] = fmt.Sprintf("input %d", i+1)
		if i+1 == bigIn {
			labels[i] += " (4x len)"
		}
		served[i] = float64(m.DeliveredFlits[i+1])
	}
	fmt.Printf("switch: %d inputs -> 1 output, arb=%s, drain p=%.2f, %d cycles\n",
		inputs, arb, drainP, cycles)
	mode := "work-list"
	if rf.Reference {
		mode = "full-scan"
	}
	fmt.Printf("arbitration: %s, %.2f arbitration sites visited/cycle (switch holds %d ports*VCs cells)\n",
		mode, float64(m.Router(0).TakeCellsVisited())/float64(cycles), ports*vcs)
	if fc := finj.Counters(); fc != (fault.Counters{}) {
		fmt.Printf("faults: %d stall cycles, %d dropped flits, %d corrupted flits, %d malformed packets\n",
			fc.StallCycles, fc.Dropped, fc.Corrupted, fc.Malformed)
	}
	fmt.Println()
	if err := plot.Bar(os.Stdout, "Flits delivered per input on the contended output", labels, served, 50); err != nil {
		return err
	}
	return rf.Report(os.Stdout, m)
}
