// Package serve puts the paper's scheduler in front of real traffic:
// an overload-safe fair-queuing HTTP front end. Requests are
// classified into per-tenant flows, held in bounded per-flow queues,
// and dispatched through a wall-clock adaptation of Elastic Round
// Robin by a concurrency-limited worker pool. ERR's defining property
// — every decision depends only on service already rendered, never on
// the cost of the work about to be started — is exactly what a
// request front end needs, because a request's cost is unknown until
// its handler returns.
//
// Robustness is the package's headline: load shedding with per-tenant
// 429s when a flow's queue or the global memory budget fills (the
// heaviest tenant sheds first, never the mice), per-request deadlines
// that evict expired waiters before dispatch, graceful degradation
// tiers driven by occupancy watermarks with hysteresis, and clean
// draining on SIGTERM.
package serve

import "repro/internal/core"

// WallERR is the wall-clock, completion-billed adaptation of Elastic
// Round Robin for concurrent servers. Its rounds are core.Rounds, the
// paper's Figure 1, so in round r flow i receives the elastic
// allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)
//
// and keeps dispatching requests while the cost billed to the current
// opportunity stays below the allowance; the overshoot becomes the
// flow's surplus count. What WallERR adds is billing for live,
// concurrent service:
//
//  1. Provisional billing. A dispatched request's cost is unknown, so
//     it is billed the 1-unit minimum at dispatch; the excess
//     (measured cost - 1) is billed when the handler returns — to the
//     opportunity if it is still open, else directly to the flow's
//     surplus count. This is what "service time billed to the flow's
//     surplus count on completion" means: an elephant whose slow
//     requests complete after its turn ended still pays for them out
//     of its next allowances.
//  2. Debt persistence. Figure 1 resets a drained flow's surplus
//     count; here surplus (debt) survives drain, because with
//     deferred billing a tenant could otherwise erase the cost of an
//     expensive in-flight request by simply letting its queue drain
//     before the completion lands. DebtCap bounds how much debt a
//     single flow can accumulate so one stuck handler cannot starve a
//     tenant forever.
//  3. Repayment visits. Deferred billing can push a flow's surplus
//     above the round allowance, making A_i <= 0. Such a flow
//     dispatches nothing at its visit and its debt shrinks by the
//     full grant w_i*(1+MaxSC(r-1)); because MaxSC tracks the largest
//     outstanding debt, the next round's allowance is positive again
//     — ERR's elasticity self-heals in one round, preserving the
//     paper's everyone-sends-something liveness.
//
// The dispatcher owns the per-flow FIFO queues. WallERR is not safe
// for concurrent use; the dispatcher serializes every call under the
// server lock (one arbiter per server, as the hardware has one
// arbiter per output port).
type WallERR struct {
	rounds  core.Rounds
	debtCap int64

	// Open service opportunity, if any (rounds.CurrentFlow).
	curOpp    int64 // token of the open opportunity
	allowance int64
	billed    int64 // cost billed to the open opportunity so far
	scAtOpen  int64 // flow's surplus when the opportunity opened
	curEmpty  bool  // flow's queue is empty (nothing left to dispatch)

	oppSeq   int64 // opportunity token generator
	inflight int   // dispatched requests not yet completed, all flows
}

// NewWallERR returns a wall-clock weighted ERR scheduler. A nil
// weight function means weight 1 for every flow. debtCap bounds a
// flow's deferred surplus count (0 = unbounded); a few multiples of
// the largest plausible single-request cost is a good choice.
func NewWallERR(weight func(flow int) int64, debtCap int64) *WallERR {
	return &WallERR{rounds: core.NewRounds(weight), debtCap: debtCap}
}

// OnArrival reports that a request joined flow's queue; wasEmpty
// reports whether the queue was empty immediately before. Unlike
// Figure 1 the surplus count is NOT reset when a drained flow
// re-activates — see the debt-persistence note on the type.
func (e *WallERR) OnArrival(flow int, wasEmpty bool) {
	if flow == e.rounds.CurrentFlow() {
		e.curEmpty = false
		return
	}
	e.rounds.Join(flow)
}

// NextFlow returns the flow whose head request should be dispatched
// next, or -1 when no flow has a dispatchable request. A returned
// flow held at least one queued request when its queue state was last
// reported; the dispatcher re-checks the queue and reports an emptied
// one via OnEvicted before asking again. Closing opportunities and
// opening new ones (including zero-dispatch repayment visits) happens
// here.
func (e *WallERR) NextFlow() int {
	for {
		if flow := e.rounds.CurrentFlow(); flow != -1 {
			if !e.curEmpty && e.billed < e.allowance {
				return flow // the do-while of Figure 1
			}
			e.closeOpportunity()
		}
		if e.rounds.ActiveFlows() == 0 {
			if e.inflight == 0 {
				// Fully idle: re-initialise round state as Figure 1's
				// Initialize would. Debts persist (see type comment).
				e.rounds.Reset()
			}
			return -1
		}
		flow, allowance := e.rounds.Open()
		e.oppSeq++
		e.curOpp = e.oppSeq
		e.scAtOpen = e.rounds.SurplusCount(flow)
		e.allowance = allowance
		e.billed = 0
		e.curEmpty = false
		if allowance <= 0 {
			// Repayment visit: the flow owes more than this round
			// grants; it dispatches nothing and its debt shrinks by
			// the full grant in closeOpportunity.
			e.closeOpportunity()
			continue
		}
		return flow
	}
}

// closeOpportunity ends the open service opportunity, folding the
// billed overshoot and any cost deferred since the opportunity opened
// into the flow's surplus count, and rotating the flow to the tail of
// the active list when it still has queued requests.
func (e *WallERR) closeOpportunity() {
	surplus := e.billed - e.allowance
	if surplus < 0 && e.curEmpty {
		// The flow drained: unused allowance is not banked —
		// round-robin schedulers carry debt, never credit. (For a
		// repayment visit, allowance <= 0 and billed == 0, surplus is
		// -allowance >= 0, so this is drain-only.)
		surplus = 0
	}
	// Completions billed past close since the opportunity opened.
	deferred := e.rounds.SurplusCount(e.rounds.CurrentFlow()) - e.scAtOpen
	debt := e.capDebt(max(surplus+deferred, 0))
	// Figure 1's MaxSC update, generalized: tracking the largest
	// outstanding debt guarantees next round's allowances stay
	// positive for everyone (w*(1+MaxSC) - SC >= w when SC <= MaxSC).
	e.rounds.Close(debt, debt, !e.curEmpty)
}

// capDebt bounds a surplus count by the debt cap, if any.
func (e *WallERR) capDebt(sc int64) int64 {
	if e.debtCap > 0 && sc > e.debtCap {
		return e.debtCap
	}
	return sc
}

// OnDispatch reports that one request from flow, the flow NextFlow
// last returned, entered service; nowEmpty reports whether the flow's
// queue is empty after the dequeue. The request is billed the 1-unit
// provisional minimum now; OnServiceDone bills the rest. The returned
// token identifies the opportunity that paid for the dispatch and
// must be passed back to OnServiceDone.
func (e *WallERR) OnDispatch(flow int, nowEmpty bool) int64 {
	if flow != e.rounds.CurrentFlow() {
		panic("serve: WallERR dispatch for a flow not in service")
	}
	e.billed++
	e.inflight++
	e.curEmpty = nowEmpty
	return e.curOpp
}

// OnEvicted reports that flow's queue lost one or more requests
// without service (deadline expiry, load shedding, drain); nowEmpty
// reports whether it is now empty. Only the in-service flow needs
// immediate bookkeeping (its opportunity must not keep polling an
// empty queue); an evicted-empty flow elsewhere on the active list
// simply drains at its next visit.
func (e *WallERR) OnEvicted(flow int, nowEmpty bool) {
	if flow == e.rounds.CurrentFlow() {
		e.curEmpty = nowEmpty
	}
}

// OnServiceDone reports that a request dispatched from flow under
// token completed at the measured cost (Config.CostOf units, whole
// milliseconds by default; a cost below 1 counts as 1). Completions
// arrive in any order, possibly after the opportunity that dispatched
// them closed. The excess over the provisional unit goes to the
// opportunity if it is still the open one, else straight to the
// flow's surplus count (deferred billing).
func (e *WallERR) OnServiceDone(flow int, token int64, cost int64) {
	if cost < 1 {
		cost = 1
	}
	e.inflight--
	if e.inflight < 0 {
		panic("serve: WallERR completion without dispatch")
	}
	excess := cost - 1
	if excess == 0 {
		return
	}
	if flow == e.rounds.CurrentFlow() && token == e.curOpp {
		e.billed += excess
		return
	}
	e.rounds.Carry(flow, e.capDebt(e.rounds.SurplusCount(flow)+excess))
}

// --- accessors for tests, metrics and invariant checks ---

// SurplusCount returns the flow's current surplus count (debt).
func (e *WallERR) SurplusCount(flow int) int64 { return e.rounds.SurplusCount(flow) }

// Round returns the 1-based index of the round in progress (0 idle).
func (e *WallERR) Round() int64 { return e.rounds.Round() }

// Inflight returns the number of dispatched, uncompleted requests.
func (e *WallERR) Inflight() int { return e.inflight }

// CurrentFlow returns the flow with the open opportunity, or -1.
func (e *WallERR) CurrentFlow() int { return e.rounds.CurrentFlow() }

// IsActive reports whether the scheduler considers flow active.
func (e *WallERR) IsActive(flow int) bool { return e.rounds.IsActive(flow) }
