package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wormhole"
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
	// Options: router-scoped fault directives address chain switches
	// 0..Hops-1; port 0 is the through/sink output.
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
		spec, err := fault.Parse(p.Faults)
		if err != nil {
			return nil, err
		}
		finj := fault.New(spec, faultSeed(p.Seed, job))
		routers := make([]*wormhole.Router, p.Hops)
		for i := 0; i < p.Hops; i++ {
			i := i
			newArb := func() sched.Scheduler { return core.New() }
			if weighted {
				// Flow ids at output 0's arbiter: 0 = through input
				// (port 0), 1 = local input (port 1). The through
				// aggregate carries i upstream sources.
				upstream := int64(i)
				newArb = func() sched.Scheduler {
					return core.NewWeighted(func(flow int) int64 {
						if flow == 0 && upstream > 0 {
							return upstream
						}
						return 1
					})
				}
			}
			r, err := wormhole.NewRouter(i, wormhole.Config{
				Ports:    2,
				VCs:      1,
				BufFlits: 16,
				NewArb:   newArb,
				Route:    func(dst int) int { return 0 },
			})
			if err != nil {
				return nil, err
			}
			if f := finj.FreezeFunc(i); f != nil {
				r.SetFreeze(f)
			}
			for port := 0; port < 2; port++ {
				if f := finj.OutputFault(i, port); f != nil {
					r.SetOutputFault(port, f)
				}
			}
			routers[i] = r
		}
		for i := 0; i+1 < p.Hops; i++ {
			wormhole.Connect(routers[i], 0, routers[i+1], 0)
			// Port 1 is injection-only, but its output must not dangle
			// in case of misrouting; give it a sink.
			wormhole.ConnectEndpoint(routers[i], 1, &wormhole.Sink{})
		}
		wormhole.ConnectEndpoint(routers[p.Hops-1], 1, &wormhole.Sink{})
		sink := &wormhole.Sink{}
		served := make([]int64, p.Hops)
		sink.OnFlit = func(f flit.Flit, vc int, cycle int64) { served[f.Flow]++ }
		wormhole.ConnectEndpoint(routers[p.Hops-1], 0, sink)

		var rec *check.Recorder
		var wd *check.Watchdog
		if p.Check {
			rec = check.NewRecorder()
			rec.Register(obs.Default())
			stream := check.NewFlitStream(rec, "parking-lot sink")
			prev := sink.OnFlit
			sink.OnFlit = func(f flit.Flit, vc int, cycle int64) {
				stream.Observe(f, vc, cycle)
				wd.Progress(cycle)
				prev(f, vc, cycle)
			}
			wd = check.NewWatchdog(spec.WatchdogBudget())
		}

		// Backlogged sources: source i injects at router i, port 1.
		pending := make([][]flit.Flit, p.Hops)
		for c := int64(0); c < p.Cycles; c++ {
			for i := 0; i < p.Hops; i++ {
				if pending[i] == nil {
					pk := flit.Packet{Flow: i, Length: p.PacketLen, Dst: 999}
					pending[i] = pk.Flits()
				}
				if routers[i].Inject(1, 0, pending[i][0], c) {
					pending[i] = pending[i][1:]
					if len(pending[i]) == 0 {
						pending[i] = nil
					}
				}
			}
			for _, r := range routers {
				r.Step(c)
			}
			// The sources are permanently backlogged, so the sink going
			// silent for the watchdog budget means the chain is wedged.
			if wd != nil && wd.Expired(c, 1) {
				var edges []wormhole.WaitEdge
				for _, r := range routers {
					edges = append(edges, r.WaitEdges(c)...)
				}
				return nil, fmt.Errorf("experiments: parking lot wedged at cycle %d (no delivery for %d cycles); channel-wait graph:\n%s",
					c, wd.Limit, noc.FormatWaitGraph(edges, 16))
			}
		}
		registerFaultCounters(obs.Default(), finj.Counters(), 0)
		if rec != nil {
			if err := rec.Err(); err != nil {
				return nil, fmt.Errorf("experiments: parking lot failed invariant checking: %w", err)
			}
		}
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
