// Command errtrace prints a round-by-round trace of an Elastic Round
// Robin execution — the content of the paper's Figure 3: for every
// round, each flow's allowance A_i(r), the flits it sent, and its
// surplus count SC_i(r), plus the round's MaxSC.
//
// By default it traces the deterministic 3-flow example documented in
// DESIGN.md (experiments.RunFig3, which cmd/reproduce writes to
// results/fig3.txt); with -random it traces a seeded random workload
// instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var (
		random  = flag.Bool("random", false, "trace a random workload instead of the fixed example")
		flows   = flag.Int("flows", 3, "flows in the random workload")
		packets = flag.Int("packets", 10, "packets per flow in the random workload")
		maxLen  = flag.Int("maxlen", 32, "maximum packet length in the random workload")
		seed    = flag.Uint64("seed", 1, "seed for the random workload")
	)
	flag.Parse()

	if *random {
		// Validate up front: an out-of-range flow count would panic
		// deep inside the harness (metrics and the service log cap
		// flow ids at 254), and a non-positive length would hang the
		// length distribution.
		if *flows < 1 || *flows > 254 {
			fmt.Fprintf(os.Stderr, "errtrace: -flows must be in 1..254 (got %d)\n", *flows)
			flag.Usage()
			os.Exit(2)
		}
		if *maxLen < 1 {
			fmt.Fprintf(os.Stderr, "errtrace: -maxlen must be >= 1 (got %d)\n", *maxLen)
			flag.Usage()
			os.Exit(2)
		}
	}

	var res *experiments.Fig3Result
	if *random {
		src := rng.New(*seed)
		dist := rng.NewUniform(1, *maxLen)
		var arrivals []flit.Packet
		for i := 0; i < *packets; i++ {
			for f := 0; f < *flows; f++ {
				arrivals = append(arrivals, flit.Packet{Flow: f, Length: dist.Draw(src)})
			}
		}
		res = experiments.TraceERR(*flows, arrivals)
	} else {
		res = experiments.RunFig3()
	}

	fmt.Println(experiments.Fig3Title)
	fmt.Println("A_i(r) = 1 + MaxSC(r-1) - SC_i(r-1);  SC_i(r) = Sent_i(r) - A_i(r)")
	fmt.Println()
	if err := trace.WriteRecorderTable(os.Stdout, res.Rec); err != nil {
		fmt.Fprintf(os.Stderr, "errtrace: %v\n", err)
		os.Exit(1)
	}
}
