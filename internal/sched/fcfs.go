package sched

import "repro/internal/queue"

// FCFS serves packets in global arrival order (First-Come-First-
// Served), the discipline "most wormhole switches used today" employ
// per the paper's Section 2. It provides no isolation: a source that
// bursts above its fair share, or that sends longer packets, steals
// bandwidth from everyone else (Figure 4(c)).
//
// Implementation: a FIFO of flow ids, one entry per queued packet.
// Because each per-flow queue is itself a FIFO, serving the flow at
// the head of this list serves exactly the globally oldest packet.
// All operations are O(1).
type FCFS struct {
	order queue.Ring[int]
}

// NewFCFS returns an FCFS scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Scheduler.
func (f *FCFS) Name() string { return "FCFS" }

// OnArrival implements Scheduler.
func (f *FCFS) OnArrival(flow int, wasEmpty bool) { f.order.Push(flow) }

// NextFlow implements Scheduler.
func (f *FCFS) NextFlow() int {
	if f.order.Len() == 0 {
		panic("sched: FCFS.NextFlow with no queued packets")
	}
	return f.order.Peek()
}

// OnPacketDone implements Scheduler.
func (f *FCFS) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	got := f.order.Pop()
	if got != flow {
		panic("sched: FCFS served a packet out of order")
	}
}
