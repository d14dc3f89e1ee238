package sched

import "repro/internal/queue"

// WFQ is Weighted Fair Queuing (Demers, Keshav & Shenker, SIGCOMM
// 1989; PGPS of Parekh & Gallager): packets are stamped with the
// finish number they would have under the fluid GPS reference and
// served in increasing finish-number order,
//
//	S_i^k = max(V(a), F_i^{k-1}),   F_i^k = S_i^k + L_i^k / w_i,
//
// where V is GPS *virtual time*, computed exactly by tracking the
// fluid system's breakpoints: between events V advances at rate
// C / W(t), where W(t) is the total weight of fluid-backlogged flows,
// and W changes whenever V crosses a packet's finish tag (a fluid
// departure). Exact virtual time is what gives WFQ the paper's
// Table 1 fairness bound of m; the common one-term approximations
// can exceed it.
//
// WFQ is ClockAware (it needs real time to advance V) and
// LengthAware (tags need lengths at arrival), with O(log n) work.
type WFQ struct {
	weight func(flow int) float64

	// Packetized server state: flows ordered by head finish tag.
	heap queue.Heap[tagEntry]
	tags map[int]*queue.Ring[float64]

	// Fluid GPS state for exact virtual time.
	vtime    float64
	lastReal float64
	activeW  float64
	fluid    queue.Heap[finEntry] // all not-yet-fluid-departed packet tags
	fluidCnt map[int]int          // per-flow count of packets in fluid
	lastFin  map[int]float64      // last assigned finish tag per flow

	now     float64
	current int
	pending int
}

// finEntry is one packet's finish tag in the fluid system.
type finEntry struct {
	tag  float64
	flow int
}

// Less orders fluid departures by finish tag alone; equal tags pop in
// the heap's own order.
func (a finEntry) Less(b finEntry) bool { return a.tag < b.tag }

// NewWFQ returns a WFQ scheduler with exact GPS virtual time; nil
// weight means equal weights.
func NewWFQ(weight func(flow int) float64) *WFQ {
	return &WFQ{
		weight:   weightFn(weight),
		tags:     make(map[int]*queue.Ring[float64]),
		fluidCnt: make(map[int]int),
		lastFin:  make(map[int]float64),
		current:  -1,
		pending:  -1,
	}
}

// Name implements Scheduler.
func (w *WFQ) Name() string { return "WFQ" }

// VirtualTime advances the fluid reference to the current real time
// and returns V — exposed for tests and instrumentation.
func (w *WFQ) VirtualTime() float64 {
	w.advance(w.now)
	return w.vtime
}

// SetNow implements ClockAware.
func (w *WFQ) SetNow(cycle int64) { w.now = float64(cycle) }

// advance moves the fluid GPS reference forward to real time t,
// crossing departure breakpoints as V catches up with finish tags.
func (w *WFQ) advance(t float64) {
	for w.lastReal < t {
		if w.activeW == 0 {
			// Fluid system idle: virtual time is frozen by convention
			// (tags of reactivating flows are clamped with max(V, .)).
			w.lastReal = t
			return
		}
		// Next fluid departure.
		for w.fluid.Len() > 0 && w.fluid.Peek().tag <= w.vtime {
			w.departOne()
			if w.activeW == 0 {
				break
			}
		}
		if w.activeW == 0 {
			continue
		}
		if w.fluid.Len() == 0 {
			// No pending work but activeW > 0 cannot happen; guard.
			w.activeW = 0
			continue
		}
		next := w.fluid.Peek().tag
		realNeeded := (next - w.vtime) * w.activeW
		if w.lastReal+realNeeded <= t {
			w.vtime = next
			w.lastReal += realNeeded
			w.departOne()
		} else {
			w.vtime += (t - w.lastReal) / w.activeW
			w.lastReal = t
		}
	}
}

// departOne removes the smallest-tag packet from the fluid system.
func (w *WFQ) departOne() {
	e := w.fluid.Pop()
	w.fluidCnt[e.flow]--
	if w.fluidCnt[e.flow] == 0 {
		w.activeW -= w.weight(e.flow)
		if w.activeW < 1e-9 {
			w.activeW = 0
		}
	}
}

// OnArrival implements Scheduler.
func (w *WFQ) OnArrival(flow int, wasEmpty bool) {
	if w.pending != -1 {
		panic("sched: WFQ OnArrival without OnArrivalLength for previous packet")
	}
	w.pending = flow
}

// OnArrivalLength implements LengthAware.
func (w *WFQ) OnArrivalLength(flow int, length int) {
	if w.pending != flow {
		panic("sched: WFQ OnArrivalLength does not match OnArrival")
	}
	w.pending = -1
	w.advance(w.now)
	start := w.vtime
	if f := w.lastFin[flow]; f > start {
		start = f
	}
	fin := start + float64(length)/w.weight(flow)
	w.lastFin[flow] = fin
	// Fluid bookkeeping.
	if w.fluidCnt[flow] == 0 {
		w.activeW += w.weight(flow)
	}
	w.fluidCnt[flow]++
	w.fluid.Push(finEntry{tag: fin, flow: flow})
	// Packetized bookkeeping.
	q := w.tags[flow]
	if q == nil {
		q = &queue.Ring[float64]{}
		w.tags[flow] = q
	}
	wasIdle := q.Len() == 0 && flow != w.current
	q.Push(fin)
	if wasIdle {
		w.heap.Push(tagEntry{flow, fin})
	}
}

// NextFlow implements Scheduler.
func (w *WFQ) NextFlow() int {
	if w.current != -1 {
		panic("sched: WFQ.NextFlow while a packet is in service")
	}
	w.current = w.heap.Pop().flow
	return w.current
}

// OnPacketDone implements Scheduler.
func (w *WFQ) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != w.current {
		panic("sched: WFQ completion for a flow not in service")
	}
	w.current = -1
	q := w.tags[flow]
	q.Pop()
	if q.Len() > 0 {
		w.heap.Push(tagEntry{flow, q.Peek()})
	}
}

var (
	_ LengthAware = (*WFQ)(nil)
	_ ClockAware  = (*WFQ)(nil)
)
