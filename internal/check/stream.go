package check

import (
	"repro/internal/flit"
)

// FlitStream incrementally validates a delivered flit stream at an
// observation point (an ejection sink, a link tap): per virtual
// channel, every packet must open with a head, advance its flits in
// Seq order under one packet id, and close with a tail before the next
// head — the wormhole no-interleaving contract. It is checked VC by VC
// because an output VC carries one packet from grant to tail, while
// the link multiplexes its VCs flit by flit: two packets — even of one
// flow — on different VCs legitimately interleave.
//
// Attach one FlitStream per sink and feed it every ejected flit;
// corruption faults (a tail delivered as a body, a duplicated head)
// surface as flit.stream violations at the cycle they arrive.
type FlitStream struct {
	rec *Recorder
	// name labels the observation point in violation details.
	name string

	vcs []streamState
}

type streamState struct {
	open bool
	id   int64
	seq  int
}

// NewFlitStream returns a validator reporting into rec; name labels
// the observation point ("sink 3", "router 0 out 2").
func NewFlitStream(rec *Recorder, name string) *FlitStream {
	return &FlitStream{rec: rec, name: name}
}

// Observe feeds the next flit delivered on virtual channel vc.
func (s *FlitStream) Observe(f flit.Flit, vc int, cycle int64) {
	if f.Flow < 0 {
		s.rec.report(cycle, InvStream, f.Flow, "%s: flit with negative flow id", s.name)
		return
	}
	for vc >= len(s.vcs) {
		s.vcs = append(s.vcs, streamState{})
	}
	st := &s.vcs[vc]
	switch f.Kind {
	case flit.HeadTail:
		if st.open {
			s.rec.report(cycle, InvStream, f.Flow,
				"%s vc %d: head of packet %d while packet %d is open (duplicate head / missing tail)",
				s.name, vc, f.PktID, st.id)
		}
		st.open = false
	case flit.Head:
		if st.open {
			s.rec.report(cycle, InvStream, f.Flow,
				"%s vc %d: head of packet %d while packet %d is open (duplicate head / missing tail)",
				s.name, vc, f.PktID, st.id)
		}
		st.open, st.id, st.seq = true, f.PktID, 1
	case flit.Body, flit.Tail:
		if !st.open {
			s.rec.report(cycle, InvStream, f.Flow,
				"%s vc %d: %v flit of packet %d without a head", s.name, vc, f.Kind, f.PktID)
			return
		}
		if f.PktID != st.id {
			s.rec.report(cycle, InvStream, f.Flow,
				"%s vc %d: flit of packet %d interleaved into open packet %d", s.name, vc, f.PktID, st.id)
			// Resynchronise on the interloper so one interleaving
			// does not cascade into a violation per flit.
			st.id = f.PktID
		}
		if f.Seq != st.seq {
			s.rec.report(cycle, InvStream, f.Flow,
				"%s vc %d: packet %d flit out of order: seq %d, expected %d", s.name, vc, st.id, f.Seq, st.seq)
		}
		st.seq = f.Seq + 1
		if f.Kind == flit.Tail {
			st.open = false
		}
	default:
		s.rec.report(cycle, InvStream, f.Flow,
			"%s: flit with unknown kind %d", s.name, uint8(f.Kind))
	}
}

// OpenPackets returns the number of VCs with a packet still open —
// after a drain this should be zero; a dropped or corrupted tail
// leaves it positive.
func (s *FlitStream) OpenPackets() int {
	n := 0
	for _, st := range s.vcs {
		if st.open {
			n++
		}
	}
	return n
}
