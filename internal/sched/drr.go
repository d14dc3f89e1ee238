package sched

import (
	"fmt"

	"repro/internal/queue"
)

// DRR is Deficit Round Robin (Shreedhar & Varghese, ToN 1996), the
// O(1) discipline closest to ERR in the paper's Table 1. Each flow
// accumulates a Quantum of credit per round-robin visit in a deficit
// counter and may transmit head packets while they fit in the
// counter. Its relative fairness bound is Max + 2m, where Max is the
// largest packet that may *potentially* arrive — the quantum must be
// provisioned for it — whereas ERR's 3m bound involves only packets
// that actually arrived.
//
// DRR requires the length of the head packet before dequeuing it
// (the deficit test), so it implements LengthAware and cannot be used
// in wormhole occupancy mode. Lengths are captured at arrival into a
// per-flow FIFO so the test never touches the real queue.
//
// The classical O(1) guarantee requires Quantum >= Max; smaller
// quanta are accepted (a visit may then transmit nothing while the
// deficit builds up), costing extra list rotations.
type DRR struct {
	name    string
	quantum func(flow int) int64
	active  queue.ActiveList
	// deficit and lengths are indexed by flow id and grown on demand
	// (flow ids are dense small integers; slices keep the hot path
	// allocation-free).
	deficit []int64
	lengths []queue.Ring[int]
	current int
}

// NewDRR returns a DRR scheduler with the given per-flow quantum
// function; nil means the fixed quantum q for all flows. A perFlow
// function must return >= 1 for every flow; it is validated at every
// use (a zero or negative quantum would spin NextFlow's rotate loop
// forever, since the deficit would never grow to fit a packet).
func NewDRR(q int64, perFlow func(flow int) int64) *DRR {
	if perFlow == nil {
		if q < 1 {
			panic(fmt.Sprintf("sched: DRR quantum %d < 1", q))
		}
		perFlow = func(int) int64 { return q }
	}
	return &DRR{
		name:    "DRR",
		quantum: perFlow,
		current: -1,
	}
}

// NewOptDRR returns a DRR scheduler named "DRR-OPT" using the given
// per-flow quanta, as computed by bounds.OptimizeQuanta (quantum
// selection minimising the worst normalised delay bound, after the
// DRR-convexity analysis of Mukherjee, Kuri & Singh). It panics on a
// flow id outside the quanta table, naming the flow.
func NewOptDRR(quanta []int64) *DRR {
	d := NewDRR(0, func(flow int) int64 {
		if flow >= len(quanta) {
			panic(fmt.Sprintf("sched: DRR-OPT has no quantum for flow %d (table has %d flows)", flow, len(quanta)))
		}
		return quanta[flow]
	})
	d.name = "DRR-OPT"
	return d
}

// grow ensures the per-flow tables cover flow.
func (d *DRR) grow(flow int) {
	if flow < len(d.deficit) {
		return
	}
	nd := make([]int64, flow+1)
	copy(nd, d.deficit)
	d.deficit = nd
	nl := make([]queue.Ring[int], flow+1)
	copy(nl, d.lengths)
	d.lengths = nl
}

// Name implements Scheduler.
func (d *DRR) Name() string { return d.name }

// OnArrival implements Scheduler.
func (d *DRR) OnArrival(flow int, wasEmpty bool) {
	d.grow(flow)
	if flow != d.current && !d.active.Contains(flow) {
		d.active.PushTail(flow)
		d.deficit[flow] = 0
	}
}

// OnArrivalLength implements LengthAware.
func (d *DRR) OnArrivalLength(flow int, length int) {
	d.grow(flow)
	d.lengths[flow].Push(length)
}

// headLen returns the length of flow's head packet. It panics if the
// engine never supplied it (the engine always pairs OnArrival with
// OnArrivalLength for LengthAware schedulers).
func (d *DRR) headLen(flow int) int64 {
	if flow >= len(d.lengths) || d.lengths[flow].Len() == 0 {
		panic("sched: DRR has no recorded length for head packet")
	}
	return int64(d.lengths[flow].Peek())
}

// NextFlow implements Scheduler.
func (d *DRR) NextFlow() int {
	if d.current != -1 {
		return d.current // continue the current service opportunity
	}
	// Rotate until some flow's head packet fits its deficit. Each
	// visit adds a quantum >= 1, so the loop always terminates; with
	// the standard Quantum >= Max provisioning it never iterates.
	for {
		flow := d.active.PopHead()
		q := d.quantum(flow)
		if q < 1 {
			panic(fmt.Sprintf("sched: DRR quantum %d < 1 for flow %d", q, flow))
		}
		d.deficit[flow] += q
		if d.headLen(flow) <= d.deficit[flow] {
			d.current = flow
			return flow
		}
		d.active.PushTail(flow)
	}
}

// OnPacketDone implements Scheduler.
func (d *DRR) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != d.current {
		panic("sched: DRR completion for a flow not in service")
	}
	length := int64(d.lengths[flow].Pop())
	d.deficit[flow] -= length
	if d.deficit[flow] < 0 {
		panic("sched: DRR deficit went negative")
	}
	if nowEmpty {
		// Shreedhar & Varghese reset the deficit of an emptied flow:
		// credit does not survive idleness.
		d.deficit[flow] = 0
		d.current = -1
		return
	}
	if d.headLen(flow) > d.deficit[flow] {
		d.active.PushTail(flow)
		d.current = -1
	}
	// Otherwise keep current: the opportunity continues with the next
	// head packet.
}

var _ LengthAware = (*DRR)(nil)
