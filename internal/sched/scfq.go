package sched

// SCFQ is Self-Clocked Fair Queuing (Golestani, INFOCOM 1994) — the
// paper the relative fairness measure comes from. Each arriving
// packet k of flow i receives the finish tag
//
//	F_i^k = max(v, F_i^{k-1}) + L_i^k / w_i
//
// where v, the "self clock", is the tag of the packet currently in
// service. Packets are served in increasing tag order via a heap, so
// the work complexity is O(log n). Tags require the packet length at
// arrival, hence LengthAware.
type SCFQ struct{ tagServer }

// NewSCFQ returns an SCFQ scheduler; nil weight means equal weights.
func NewSCFQ(weight func(flow int) float64) *SCFQ {
	return &SCFQ{newTagServer("SCFQ", weight)}
}

// OnArrivalLength implements LengthAware: SCFQ queues the finish tag,
// its start clamped to the tag in service.
func (s *SCFQ) OnArrivalLength(flow int, length int) {
	_, finish := s.stamp(flow, length, s.v)
	s.enqueue(flow, finish)
}

var _ LengthAware = (*SCFQ)(nil)
