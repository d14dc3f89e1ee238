package sched

import "repro/internal/queue"

// VirtualClock (Zhang, SIGCOMM 1990) emulates time-division
// multiplexing rather than GPS: each flow owns a virtual clock that
// advances by L / rate_i per packet, reset forward to real time when
// the flow has been idle:
//
//	VC_i = max(now, VC_i) + L / w_i
//
// and packets are served in increasing VC order. O(log n),
// LengthAware, and ClockAware (the max with real time is the defining
// difference from SCFQ).
type VirtualClock struct {
	weight  func(flow int) float64
	heap    queue.Heap[tagEntry]
	tags    map[int]*queue.Ring[float64]
	vc      map[int]float64
	now     float64
	current int
	pending int
}

// NewVirtualClock returns a VirtualClock scheduler; nil weight means
// equal weights (one flit of entitlement per cycle split evenly is
// immaterial — only relative weights matter).
func NewVirtualClock(weight func(flow int) float64) *VirtualClock {
	return &VirtualClock{
		weight:  weightFn(weight),
		tags:    make(map[int]*queue.Ring[float64]),
		vc:      make(map[int]float64),
		current: -1,
		pending: -1,
	}
}

// Name implements Scheduler.
func (v *VirtualClock) Name() string { return "VClock" }

// SetNow implements ClockAware.
func (v *VirtualClock) SetNow(cycle int64) { v.now = float64(cycle) }

// OnArrival implements Scheduler.
func (v *VirtualClock) OnArrival(flow int, wasEmpty bool) {
	if v.pending != -1 {
		panic("sched: VirtualClock OnArrival without OnArrivalLength for previous packet")
	}
	v.pending = flow
}

// OnArrivalLength implements LengthAware.
func (v *VirtualClock) OnArrivalLength(flow int, length int) {
	if v.pending != flow {
		panic("sched: VirtualClock OnArrivalLength does not match OnArrival")
	}
	v.pending = -1
	clock := v.vc[flow]
	if v.now > clock {
		clock = v.now
	}
	clock += float64(length) / v.weight(flow)
	v.vc[flow] = clock
	q := v.tags[flow]
	if q == nil {
		q = &queue.Ring[float64]{}
		v.tags[flow] = q
	}
	wasIdle := q.Len() == 0 && flow != v.current
	q.Push(clock)
	if wasIdle {
		v.heap.Push(tagEntry{flow, clock})
	}
}

// NextFlow implements Scheduler.
func (v *VirtualClock) NextFlow() int {
	if v.current != -1 {
		panic("sched: VirtualClock.NextFlow while a packet is in service")
	}
	v.current = v.heap.Pop().flow
	return v.current
}

// OnPacketDone implements Scheduler.
func (v *VirtualClock) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != v.current {
		panic("sched: VirtualClock completion for a flow not in service")
	}
	v.current = -1
	q := v.tags[flow]
	q.Pop()
	if q.Len() > 0 {
		v.heap.Push(tagEntry{flow, q.Peek()})
	}
}

var (
	_ LengthAware = (*VirtualClock)(nil)
	_ ClockAware  = (*VirtualClock)(nil)
)
