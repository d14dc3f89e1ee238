package noc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
)

// Protect wires a run's robustness options into the network, in the
// one call every network driver makes. It parses the fault spec,
// refuses any directive a network does not apply (fault.Network), and
// installs the rest with the given seed: link stalls, drops and
// corruption on router outputs, router freezes, and malformed packets
// at the injection front ends (Send). With checked set it also
// validates every ejected flit stream, and the terminal each flit
// leaves at, into the returned recorder, registered with obs.Default,
// and arms the deadlock watchdog with the spec's budget: Step, Run and
// Drain consult it, and Wedged reports its trip. The injector (nil on
// a fault-free run) counts what fired.
func (m *Mesh) Protect(faults string, seed uint64, checked bool) (*fault.Injector, *check.Recorder, error) {
	spec, err := fault.Parse(faults)
	if err == nil {
		err = fault.Network.Check(spec)
	}
	if err != nil {
		return nil, nil, err
	}
	inj := fault.New(spec, seed)
	if inj != nil {
		m.faults = inj
		for id, r := range m.routers {
			if f := inj.FreezeFunc(id); f != nil {
				r.SetFreeze(f)
			}
			for port := 0; port < r.Ports(); port++ {
				if f := inj.OutputFault(id, port); f != nil {
					r.SetOutputFault(port, f)
				}
			}
		}
	}
	var rec *check.Recorder
	if checked {
		rec = check.NewRecorder()
		rec.Register(obs.Default())
		m.checkStreams(rec)
		m.watchProgress(check.NewWatchdog(spec.WatchdogBudget()))
	}
	return inj, rec, nil
}

// checkStreams attaches a flit-stream validator (wormhole contiguity,
// per-VC packet wellformedness) to every ejection sink, and checks
// that each flit ejects at the terminal it is addressed to, reporting
// into rec. The returned streams, indexed by terminal, allow a
// post-drain audit: a stream with
// OpenPackets() > 0 received a head whose tail never arrived — the
// signature of a dropped or corrupted tail flit.
func (m *Mesh) checkStreams(rec *check.Recorder) []*check.FlitStream {
	streams := make([]*check.FlitStream, len(m.sinks))
	for id, s := range m.sinks {
		stream := check.NewFlitStream(rec, fmt.Sprintf("sink %d", id))
		prev := s.OnFlit
		s.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			stream.Observe(f, vc, cycle)
			if f.Dst != id {
				rec.Report(cycle, check.InvDestination, f.Flow,
					"sink %d: flit %d of packet %d is addressed to terminal %d", id, f.Seq, f.PktID, f.Dst)
			}
			prev(f, vc, cycle)
		}
		streams[id] = stream
	}
	return streams
}

// watchProgress feeds every flit delivery to the watchdog and attaches
// it to the stepping core, so a network with in-flight packets that
// delivers nothing for the watchdog's budget is flagged as deadlocked
// (check the wait graph) or livelocked. Step consults it every cycle,
// and Run/Drain also at the exact trip cycle inside any skipped gap —
// closing the blind spot where event-driven advancement would jump a
// wedged-but-quiet network (in-flight packets, nothing runnable)
// straight to the horizon without ever tripping it.
func (m *Mesh) watchProgress(wd *check.Watchdog) {
	m.wd = wd
	for _, s := range m.sinks {
		prev := s.OnFlit
		s.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			wd.Progress(cycle)
			prev(f, vc, cycle)
		}
	}
}

// Wedged returns the watchdog's wedge report once the watchdog Protect
// armed has tripped, and nil before: the trip cycle, the packets in
// flight, the flits dropped by fault injection, and the channel-wait
// graph at the trip — who is blocked on which VC, and why.
func (m *Mesh) Wedged() error { return m.wedged }

// wedgeReport renders the wedge report for a trip at cycle c, listing
// at most 32 channel-wait edges.
func (m *Mesh) wedgeReport(c int64) error {
	var dropped int64
	graph, edges := "", 0
	for _, r := range m.routers {
		dropped += r.FaultDropped
		for _, e := range r.WaitEdges(c) {
			if edges++; edges <= 32 {
				graph += "  " + e.String() + "\n"
			}
		}
	}
	switch {
	case edges == 0:
		graph = "  (no blocked channels)"
	case edges > 32:
		graph += fmt.Sprintf("  ... and %d more edges\n", edges-32)
	}
	return fmt.Errorf("wedged at cycle %d: %d packets in flight, no delivery for %d cycles (%d flits dropped by fault injection)\nchannel-wait graph:\n%s",
		c, len(m.inflight), m.wd.Limit, dropped, graph)
}
