package noc

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/wormhole"
)

// InstallFaults installs an injector's router-scoped faults on every
// router of the mesh: output-link stalls, flit drop/corruption, and
// router freezes, all addressed by node id and output port. A nil
// injector installs nothing, so the call needs no fault/no-fault
// branching at the call site.
func (m *Mesh) InstallFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	for id, r := range m.routers {
		if f := inj.FreezeFunc(id); f != nil {
			r.SetFreeze(f)
		}
		for port := 0; port < numPorts; port++ {
			if f := inj.OutputFault(id, port); f != nil {
				r.SetOutputFault(port, f)
			}
		}
	}
	// Register every stall/freeze window edge as a wake event and
	// declare the edges known, so event-driven Run/Drain may treat
	// fault-blocked routers as dormant between edges instead of polling
	// them cycle-by-cycle (see wormhole.Router.NextEventAt). This must
	// come after the hook installs above: SetFreeze/SetOutputFault
	// withdraw the declaration.
	for _, at := range inj.WindowEdges() {
		m.ScheduleWake(at)
	}
	for _, r := range m.routers {
		r.SetFaultEdgesKnown(true)
	}
}

// CheckStreams attaches a flit-stream validator (wormhole contiguity,
// per-VC packet wellformedness) to every ejection sink, reporting
// into rec. The returned streams allow a post-drain audit: a stream
// with OpenPackets() > 0 received a head whose tail never arrived —
// the signature of a dropped or corrupted tail flit.
func (m *Mesh) CheckStreams(rec *check.Recorder) []*check.FlitStream {
	streams := make([]*check.FlitStream, len(m.sinks))
	for id := range m.sinks {
		s := m.sinks[id]
		stream := check.NewFlitStream(rec, fmt.Sprintf("sink %d", id))
		prev := s.OnFlit
		s.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			stream.Observe(f, vc, cycle)
			if prev != nil {
				prev(f, vc, cycle)
			}
		}
		streams[id] = stream
	}
	return streams
}

// WatchProgress feeds every flit delivery to the watchdog, so a mesh
// with in-flight packets that delivers nothing for the watchdog's
// budget is flagged as deadlocked (check the wait graph) or
// livelocked. The watchdog is also attached to Run/Drain, which
// consult it every stepped cycle AND at the exact trip cycle inside
// any skipped gap — closing the blind spot where event-driven
// advancement would jump a wedged-but-quiet network (in-flight
// packets, nothing runnable) straight to the horizon without ever
// tripping it.
func (m *Mesh) WatchProgress(wd *check.Watchdog) {
	m.wd = wd
	for id := range m.sinks {
		s := m.sinks[id]
		prev := s.OnFlit
		s.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			wd.Progress(cycle)
			if prev != nil {
				prev(f, vc, cycle)
			}
		}
	}
}

// SetOnWedged installs a hook fired at most once — on the watchdog's
// single tripping call inside Run/Drain — with the trip cycle, for
// channel-wait diagnostics (WaitGraph / FormatWaitGraph) at the
// moment of the wedge. WatchProgress must have attached the watchdog
// first.
func (m *Mesh) SetOnWedged(fn func(cycle int64)) { m.onWedged = fn }

// WaitGraph returns the channel-wait edges of every router — who is
// blocked on what, and why — for deadlock diagnosis after a watchdog
// trip.
func (m *Mesh) WaitGraph(cycle int64) []wormhole.WaitEdge {
	var edges []wormhole.WaitEdge
	for _, r := range m.routers {
		edges = append(edges, r.WaitEdges(cycle)...)
	}
	return edges
}

// FaultDropped sums the flits the routers' fault injectors dropped.
func (m *Mesh) FaultDropped() int64 {
	var n int64
	for _, r := range m.routers {
		n += r.FaultDropped
	}
	return n
}

// FormatWaitGraph renders a wait graph for an error message or a
// diagnostic dump, capped at max edges (0 = all).
func FormatWaitGraph(edges []wormhole.WaitEdge, max int) string {
	if len(edges) == 0 {
		return "  (no blocked channels)"
	}
	out := ""
	for i, e := range edges {
		if max > 0 && i == max {
			out += fmt.Sprintf("  ... and %d more edges\n", len(edges)-max)
			break
		}
		out += "  " + e.String() + "\n"
	}
	return out
}
