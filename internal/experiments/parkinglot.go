package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sched"
)

// ParkingLotParams parameterises the parking-lot experiment: a chain
// of wormhole switches, one backlogged source injecting at each hop,
// all traffic destined past the last switch. Per-link fair
// arbitration (unweighted ERR at every merge point) famously yields
// geometric end-to-end shares — the source nearest the sink gets 1/2,
// the next 1/4, and so on — because each merge treats "one local
// flow" and "the aggregate of all upstream flows" as equals. Weighted
// ERR with the through-port weighted by the number of upstream
// sources restores equal end-to-end shares, a concrete use of the
// weighted extension.
type ParkingLotParams struct {
	// Hops is the number of switches (and sources).
	Hops int
	// Cycles is the simulation length.
	Cycles int64
	// PacketLen is the fixed packet length in flits.
	PacketLen int
	// Seed seeds the fault injector's randomness (the workload itself
	// is deterministic).
	Seed uint64
	// Options: fault directives address chain switches 0..Hops-1; port
	// 0 is the through/sink output, port 1 the local one.
	Options
}

// DefaultParkingLotParams returns defaults.
func DefaultParkingLotParams() ParkingLotParams {
	return ParkingLotParams{Hops: 4, Cycles: 400_000, PacketLen: 8}
}

// ParkingLotResult holds per-source delivered flits and shares under
// both arbitrations.
type ParkingLotResult struct {
	Params ParkingLotParams
	// ShareERR[i] and ShareWERR[i] are source i's fraction of the
	// sink's delivered flits (source 0 is farthest from the sink).
	ShareERR  []float64
	ShareWERR []float64
}

// RunParkingLot runs the chain under unweighted and weighted ERR.
func RunParkingLot(p ParkingLotParams) (*ParkingLotResult, error) {
	if p.Hops < 2 {
		return nil, fmt.Errorf("experiments: parking lot needs >= 2 hops")
	}
	run := func(weighted bool, job int) ([]float64, error) {
		// Router i has the through port 0 (fed by router i-1) and the
		// local port 1, where source i — terminal i — injects; terminal
		// Hops is the sink past the last switch. Every packet heads down
		// the chain, so port 1's output ejects nothing.
		g := noc.Graph{
			Routers:  p.Hops,
			Ports:    2,
			VCs:      1,
			BufFlits: 16,
			Route:    func(int, int) int { return 0 },
			// Flow ids at output 0's arbiter: 0 = through input (port
			// 0), 1 = local input (port 1). Weighted ERR weights the
			// through aggregate at router i by its i upstream sources.
			NewArb: func(i int) func() sched.Scheduler {
				upstream := int64(i)
				return func() sched.Scheduler {
					if !weighted {
						return core.New()
					}
					return core.NewWeighted(func(flow int) int64 {
						if flow == 0 && upstream > 0 {
							return upstream
						}
						return 1
					})
				}
			},
		}
		for i := 0; i < p.Hops; i++ {
			g.Terminals = append(g.Terminals, noc.Terminal{Router: i, Inject: 1, Eject: 1})
			if i+1 < p.Hops {
				g.Links = append(g.Links, noc.Link{From: i, Out: 0, To: i + 1, In: 0})
			}
		}
		g.Terminals = append(g.Terminals, noc.Terminal{Router: p.Hops - 1, Inject: -1, Eject: 0})
		m, err := noc.NewGraph(g)
		if err != nil {
			return nil, err
		}
		finj, rec, err := m.Protect(p.Faults, faultSeed(p.Seed, job), p.Check)
		if err != nil {
			return nil, err
		}
		// Backlogged sources: each always has a packet queued or
		// entering the network.
		for c := int64(0); c < p.Cycles && m.Wedged() == nil; c++ {
			for i := 0; i < p.Hops; i++ {
				if m.PendingAt(i) == 0 {
					m.Send(i, p.Hops, p.PacketLen)
				}
			}
			m.Step()
		}
		if err := m.Wedged(); err != nil {
			return nil, fmt.Errorf("experiments: parking lot %w", err)
		}
		registerFaultCounters(obs.Default(), finj.Counters(), 0)
		if rec != nil {
			if err := rec.Err(); err != nil {
				return nil, fmt.Errorf("experiments: parking lot failed invariant checking: %w", err)
			}
		}
		// Only the sink receives flits, so the per-source delivery
		// counters are the sink's.
		served := m.DeliveredFlits[:p.Hops]
		var total int64
		for _, s := range served {
			total += s
		}
		shares := make([]float64, p.Hops)
		for i, s := range served {
			shares[i] = float64(s) / float64(total)
		}
		return shares, nil
	}
	// The two arbitration variants are independent chains — run them
	// as two jobs.
	shares, err := runGrid("parkinglot", p, p.Options, []exec.Job[[]float64]{
		func() ([]float64, error) { return run(false, 0) },
		func() ([]float64, error) { return run(true, 1) },
	})
	if err != nil {
		return nil, err
	}
	return &ParkingLotResult{Params: p, ShareERR: shares[0], ShareWERR: shares[1]}, nil
}

// Render writes the share table.
func (r *ParkingLotResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Parking lot — %d-hop chain, per-source share of sink throughput\n", r.Params.Hops)
	fmt.Fprintln(tw, "source (0 = farthest)\tERR\tweighted ERR\tequal share")
	equal := 1.0 / float64(r.Params.Hops)
	for i := range r.ShareERR {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", i, r.ShareERR[i], r.ShareWERR[i], equal)
	}
	return tw.Flush()
}
