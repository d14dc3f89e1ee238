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
	tagServer

	// Fluid GPS state for exact virtual time.
	vtime    float64
	lastReal float64
	activeW  float64
	fluid    queue.Heap[finEntry] // all not-yet-fluid-departed packet tags
	fluidCnt []int                // per-flow count of packets in fluid, grown on demand

	now float64
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
	return &WFQ{tagServer: newTagServer("WFQ", weight)}
}

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

// OnArrivalLength implements LengthAware: WFQ queues the finish tag,
// its start clamped to V, and adds the packet to the fluid system.
func (w *WFQ) OnArrivalLength(flow int, length int) {
	w.advance(w.now)
	_, fin := w.stamp(flow, length, w.vtime)
	for len(w.fluidCnt) <= flow {
		w.fluidCnt = append(w.fluidCnt, 0)
	}
	if w.fluidCnt[flow] == 0 {
		w.activeW += w.weight(flow)
	}
	w.fluidCnt[flow]++
	w.fluid.Push(finEntry{tag: fin, flow: flow})
	w.enqueue(flow, fin)
}

var (
	_ LengthAware = (*WFQ)(nil)
	_ ClockAware  = (*WFQ)(nil)
)
