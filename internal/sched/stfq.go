package sched

import "repro/internal/queue"

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
type STFQ struct {
	weight  func(flow int) float64
	heap    queue.Heap[tagEntry]
	starts  map[int]*queue.Ring[float64] // queued start tags per flow
	lastFin map[int]float64
	v       float64
	current int
	pending int
}

// NewSTFQ returns an STFQ scheduler; nil weight means equal weights.
func NewSTFQ(weight func(flow int) float64) *STFQ {
	return &STFQ{
		weight:  weightFn(weight),
		starts:  make(map[int]*queue.Ring[float64]),
		lastFin: make(map[int]float64),
		current: -1,
		pending: -1,
	}
}

// Name implements Scheduler.
func (s *STFQ) Name() string { return "STFQ" }

// OnArrival implements Scheduler.
func (s *STFQ) OnArrival(flow int, wasEmpty bool) {
	if s.pending != -1 {
		panic("sched: STFQ OnArrival without OnArrivalLength for previous packet")
	}
	s.pending = flow
}

// OnArrivalLength implements LengthAware.
func (s *STFQ) OnArrivalLength(flow int, length int) {
	if s.pending != flow {
		panic("sched: STFQ OnArrivalLength does not match OnArrival")
	}
	s.pending = -1
	start := s.v
	if f := s.lastFin[flow]; f > start {
		start = f
	}
	s.lastFin[flow] = start + float64(length)/s.weight(flow)
	q := s.starts[flow]
	if q == nil {
		q = &queue.Ring[float64]{}
		s.starts[flow] = q
	}
	wasIdle := q.Len() == 0 && flow != s.current
	q.Push(start)
	if wasIdle {
		s.heap.Push(tagEntry{flow, start})
	}
}

// NextFlow implements Scheduler.
func (s *STFQ) NextFlow() int {
	if s.current != -1 {
		panic("sched: STFQ.NextFlow while a packet is in service")
	}
	e := s.heap.Pop()
	s.current = e.flow
	s.v = e.tag
	return e.flow
}

// OnPacketDone implements Scheduler.
func (s *STFQ) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != s.current {
		panic("sched: STFQ completion for a flow not in service")
	}
	s.current = -1
	q := s.starts[flow]
	q.Pop()
	if q.Len() > 0 {
		s.heap.Push(tagEntry{flow, q.Peek()})
	}
}

var _ LengthAware = (*STFQ)(nil)
