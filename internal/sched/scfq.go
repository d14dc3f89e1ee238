package sched

import "repro/internal/queue"

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
type SCFQ struct {
	weight  func(flow int) float64
	heap    queue.Heap[tagEntry]
	tags    map[int]*queue.Ring[float64] // queued head-to-tail finish tags per flow
	lastTag map[int]float64              // F_i of the most recent arrival
	v       float64                      // tag of packet in (or last in) service
	current int
	pending int // flow whose OnArrival awaits its OnArrivalLength
}

// NewSCFQ returns an SCFQ scheduler; nil weight means equal weights.
func NewSCFQ(weight func(flow int) float64) *SCFQ {
	return &SCFQ{
		weight:  weightFn(weight),
		tags:    make(map[int]*queue.Ring[float64]),
		lastTag: make(map[int]float64),
		current: -1,
		pending: -1,
	}
}

// Name implements Scheduler.
func (s *SCFQ) Name() string { return "SCFQ" }

// OnArrival implements Scheduler. The tag is computed when the
// length arrives in OnArrivalLength.
func (s *SCFQ) OnArrival(flow int, wasEmpty bool) {
	if s.pending != -1 {
		panic("sched: SCFQ OnArrival without OnArrivalLength for previous packet")
	}
	s.pending = flow
}

// OnArrivalLength implements LengthAware.
func (s *SCFQ) OnArrivalLength(flow int, length int) {
	if s.pending != flow {
		panic("sched: SCFQ OnArrivalLength does not match OnArrival")
	}
	s.pending = -1
	last := s.lastTag[flow]
	start := s.v
	if last > start {
		start = last
	}
	tag := start + float64(length)/s.weight(flow)
	s.lastTag[flow] = tag
	q := s.tags[flow]
	if q == nil {
		q = &queue.Ring[float64]{}
		s.tags[flow] = q
	}
	wasIdle := q.Len() == 0 && flow != s.current
	q.Push(tag)
	if wasIdle {
		s.heap.Push(tagEntry{flow, tag})
	}
}

// NextFlow implements Scheduler.
func (s *SCFQ) NextFlow() int {
	if s.current != -1 {
		panic("sched: SCFQ.NextFlow while a packet is in service")
	}
	e := s.heap.Pop()
	s.current = e.flow
	s.v = e.tag
	return e.flow
}

// OnPacketDone implements Scheduler.
func (s *SCFQ) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != s.current {
		panic("sched: SCFQ completion for a flow not in service")
	}
	s.current = -1
	q := s.tags[flow]
	q.Pop()
	if q.Len() > 0 {
		s.heap.Push(tagEntry{flow, q.Peek()})
	}
}

var _ LengthAware = (*SCFQ)(nil)
