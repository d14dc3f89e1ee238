package core

// Rounds is the round machinery of the paper's Figure 1, written once
// for every ERR variant: the ActiveList, each flow's surplus count,
// the round counter and RoundRobinVisitCount, MaxSC, and the elastic
// allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)
//
// given when a flow's service opportunity opens. A scheduler built on
// Rounds decides only how cost is billed and what a closing
// opportunity carries forward. ERR learns each packet's cost when the
// packet completes, inside the opportunity; serve.WallERR learns a
// request's cost when its handler returns, possibly after the
// opportunity that dispatched it closed.
//
// Create one with NewRounds. Rounds is not safe for concurrent use.
type Rounds struct {
	// flows holds each flow's surplus count and ActiveList link,
	// indexed by flow id and grown on demand (flow ids are dense small
	// integers). The ActiveList is the FIFO threaded through these
	// records from head to tail; n counts its members.
	flows      []flowRec
	head, tail int32
	n          int

	round     int64 // 1-based index of the round in progress
	rrvc      int   // RoundRobinVisitCount
	maxSC     int64 // MaxSC of the round in progress
	prevMaxSC int64 // MaxSC of the completed round

	cur       int   // flow whose opportunity is open, or -1
	allowance int64 // A_i of that opportunity

	// weight is nil for the paper's unweighted algorithm.
	weight func(flow int) int64
	trace  TraceSink
}

// flowRec is one flow's state: its surplus count SC_i and its place
// on the ActiveList (membership, and the next flow toward the tail).
// Keeping both in one record gives each arbiter one allocation for
// all its per-flow state.
type flowRec struct {
	sc     int64
	next   int32
	onList bool
}

// NewRounds returns empty rounds with per-flow integer weights >= 1
// (checked when a flow's opportunity opens). A nil weight function
// means weight 1 for every flow, the paper's unweighted algorithm.
func NewRounds(weight func(flow int) int64) Rounds {
	return Rounds{weight: weight, head: -1, tail: -1, cur: -1}
}

// rec returns flow's record, growing the table as needed.
func (r *Rounds) rec(flow int) *flowRec {
	if flow >= len(r.flows) {
		grown := make([]flowRec, flow+1)
		copy(grown, r.flows)
		r.flows = grown
	}
	return &r.flows[flow]
}

// pushTail appends flow, which is not on the ActiveList, at its tail.
func (r *Rounds) pushTail(flow int) {
	r.flows[flow].onList = true
	if r.tail < 0 {
		r.head = int32(flow)
	} else {
		r.flows[r.tail].next = int32(flow)
	}
	r.tail = int32(flow)
	r.n++
}

// popHead removes and returns the flow at the ActiveList's head.
func (r *Rounds) popHead() int {
	flow := r.head
	if flow < 0 {
		panic("core: opportunity opened with no active flow")
	}
	f := &r.flows[flow]
	f.onList = false
	if flow == r.tail {
		r.head, r.tail = -1, -1
	} else {
		r.head = f.next
	}
	r.n--
	return int(flow)
}

// Join is the Enqueue routine of Figure 1: flow joins the ActiveList's
// tail unless it is already on it or its opportunity is open (a flow
// in service counts as active even though it is off the list).
func (r *Rounds) Join(flow int) {
	if flow == r.cur || r.rec(flow).onList {
		return
	}
	r.pushTail(flow)
}

// Open opens the opportunity of the flow at the ActiveList's head and
// returns the flow and its allowance, first starting a new round when
// the last one has visited every flow it counted. The list must not
// be empty, and no opportunity may be open.
func (r *Rounds) Open() (flow int, allowance int64) {
	if r.rrvc == 0 {
		// A round has completed (or the rounds are fresh or reset):
		// snapshot MaxSC and count the flows to visit this round.
		r.prevMaxSC = r.maxSC
		r.maxSC = 0
		r.rrvc = r.n
		r.round++
		if r.trace != nil {
			r.trace.RoundStart(r.round, r.prevMaxSC, r.rrvc)
		}
	}
	flow = r.popHead()
	w := int64(1)
	if r.weight != nil {
		if w = r.weight(flow); w < 1 {
			panic("core: flow weight < 1")
		}
	}
	r.cur = flow
	r.allowance = w*(1+r.prevMaxSC) - r.flows[flow].sc
	return flow, r.allowance
}

// Close ends the open opportunity. surplus is the overshoot MaxSC
// tracks (Sent_i - A_i in Figure 1), carry the surplus count the flow
// takes into its next opportunity, and rejoin whether the flow goes
// back to the ActiveList's tail; a flow that does not rejoin has
// drained and leaves. The trace sink sees the opportunity with
// Sent_i = A_i + surplus.
func (r *Rounds) Close(surplus, carry int64, rejoin bool) {
	flow := r.cur
	if surplus > r.maxSC {
		// Figure 1 updates MaxSC before the empty-queue check, so
		// even a flow that drains and leaves contributes its surplus.
		r.maxSC = surplus
	}
	r.flows[flow].sc = carry
	if rejoin {
		r.pushTail(flow)
	}
	if r.trace != nil {
		r.trace.Opportunity(r.round, flow, r.allowance, r.allowance+surplus, surplus, !rejoin)
	}
	r.cur = -1
	r.rrvc--
}

// Carry sets flow's surplus count to sc outside Close, and MaxSC
// tracks it as it tracks a closing opportunity's surplus. A scheduler
// that learns a cost after the opportunity which paid for it has
// closed bills it here.
func (r *Rounds) Carry(flow int, sc int64) {
	r.rec(flow).sc = sc
	if sc > r.maxSC {
		r.maxSC = sc
	}
}

// Reset re-initialises the round state, as Initialize in Figure 1
// would, so that a flow arriving after an idle period starts a fresh
// round 1. Surplus counts are kept.
func (r *Rounds) Reset() { r.rrvc, r.maxSC, r.prevMaxSC, r.round = 0, 0, 0, 0 }

// SurplusCount returns SC of the given flow.
func (r *Rounds) SurplusCount(flow int) int64 {
	if flow >= len(r.flows) {
		return 0
	}
	return r.flows[flow].sc
}

// Round returns the 1-based index of the round in progress (0 when
// fresh or reset).
func (r *Rounds) Round() int64 { return r.round }

// CurrentFlow returns the flow whose opportunity is open, or -1.
func (r *Rounds) CurrentFlow() int { return r.cur }

// ActiveFlows returns the number of flows on the ActiveList (the flow
// in service, if any, is not on it).
func (r *Rounds) ActiveFlows() int { return r.n }

// IsActive reports whether flow is active: on the ActiveList, or
// temporarily off it while in service.
func (r *Rounds) IsActive(flow int) bool {
	return flow == r.cur || (uint(flow) < uint(len(r.flows)) && r.flows[flow].onList)
}
