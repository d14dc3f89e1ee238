// Package min builds a multistage interconnection network (an omega
// network — the class of fabric inside the IBM SP2-style switches the
// paper's introduction cites) as a router graph on the network kernel
// (package noc): log2(N) stages of 2x2 switches, perfect-shuffle
// wiring, destination-tag routing, and per-output-queue packet
// arbitration by a pluggable discipline (ERR by default). The network
// is feed-forward, hence trivially deadlock-free, which makes it a
// clean fabric for studying pure arbitration fairness: every merge
// point is a 2-way contest between flows, exactly the paper's
// scheduling problem.
package min

import (
	"fmt"
	"math/bits"

	"repro/internal/noc"
	"repro/internal/sched"
)

// Config configures an omega network.
type Config struct {
	// Terminals is the number of end points; must be a power of two,
	// >= 4.
	Terminals int
	// VCs is the number of virtual channels per switch port.
	VCs int
	// BufFlits is the input VC buffer depth of each switch.
	BufFlits int
	// NewArb constructs each switch output arbiter (must satisfy
	// sched.HeadOfLineArb).
	NewArb func() sched.Scheduler
}

// NewOmega validates cfg and builds the network. Terminal t injects
// at the first stage and ejects at the last; the kernel steps, drains
// and accounts for the network like any other graph (noc.NewGraph).
func NewOmega(cfg Config) (*noc.Mesh, error) {
	N := cfg.Terminals
	if N < 4 || N&(N-1) != 0 {
		return nil, fmt.Errorf("min: terminals must be a power of two >= 4, got %d", N)
	}
	if cfg.NewArb == nil {
		return nil, fmt.Errorf("min: NewArb is required")
	}
	return noc.NewGraph(graph(cfg))
}

// Stages returns the number of switch stages of an omega network with
// the given number of terminals.
func Stages(terminals int) int { return bits.TrailingZeros(uint(terminals)) }

// shuffle rotates line number l's n bits left by one (the perfect
// shuffle).
func shuffle(l, n int) int { return (l<<1 | l>>(n-1)) & (1<<n - 1) }

// graph lays out cfg's omega network: router s*N/2 + j is switch j of
// stage s, whose port p is line 2j+p of the stage.
func graph(cfg Config) noc.Graph {
	N, n := cfg.Terminals, Stages(cfg.Terminals)
	half := N / 2
	g := noc.Graph{
		Routers: n * half,
		Ports:   2,
		// At stage s the output port is bit n-1-s of the destination.
		Route:    func(r, dst int) int { return (dst >> (n - 1 - r/half)) & 1 },
		NewArb:   func(int) func() sched.Scheduler { return cfg.NewArb },
		VCs:      cfg.VCs,
		BufFlits: cfg.BufFlits,
	}
	// Output line l of one stage feeds input line shuffle(l) of the
	// next.
	for s := 0; s+1 < n; s++ {
		for l := 0; l < N; l++ {
			next := shuffle(l, n)
			g.Links = append(g.Links, noc.Link{
				From: s*half + l/2, Out: l % 2,
				To: (s+1)*half + next/2, In: next % 2,
			})
		}
	}
	// Destination-tag routing needs the shuffle before stage 0 too:
	// terminal t enters at input line shuffle(t) and leaves at output
	// line t of the last stage.
	last := (n - 1) * half
	for t := 0; t < N; t++ {
		in := shuffle(t, n)
		g.Terminals = append(g.Terminals, noc.Terminal{
			Inject: noc.Port{Router: in / 2, Port: in % 2},
			Eject:  noc.Port{Router: last + t/2, Port: t % 2},
		})
	}
	return g
}
