package sched

// STFQ is Start-time Fair Queuing (Goyal, Vin & Cheng, SIGCOMM 1996):
// like SCFQ it self-clocks its virtual time from the packet in
// service, but it serves packets in increasing *start*-tag order,
//
//	S_i^k = max(v, F_i^{k-1}),   F_i^k = S_i^k + L_i^k / w_i,
//
// with v the start tag of the packet in service. Compared to SCFQ it
// trades a slightly looser fairness bound for much better latency to
// low-rate flows. Included as an additional O(log n), LengthAware
// baseline for the Table 1 family.
type STFQ struct{ tagServer }

// NewSTFQ returns an STFQ scheduler; nil weight means equal weights.
func NewSTFQ(weight func(flow int) float64) *STFQ {
	return &STFQ{newTagServer("STFQ", weight)}
}

// OnArrivalLength implements LengthAware: STFQ queues the start tag,
// clamped to the tag in service.
func (s *STFQ) OnArrivalLength(flow int, length int) {
	start, _ := s.stamp(flow, length, s.v)
	s.enqueue(flow, start)
}

var _ LengthAware = (*STFQ)(nil)
