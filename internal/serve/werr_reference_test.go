package serve

import (
	"testing"

	"repro/internal/queue"
	"repro/internal/rng"
)

// This file keeps WallERR as it stood before its rounds moved onto
// core.Rounds — its own queue.ActiveList, surplus slice, round
// counters and allowance formula — as the oracle that
// TestWallERRMatchesReference and FuzzWallERRMatchesReference compare
// WallERR's decisions against. The code is unchanged but for the
// type's name; the Name method and the assertion and doc references
// of the deleted sched.AsyncScheduler interface were dropped.

// refWallERR is the wall-clock, completion-billed adaptation of Elastic
// Round Robin (core.ERR) for concurrent servers.
//
// The round/allowance/surplus machinery is the paper's Figure 1: in
// round r flow i receives the elastic allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)
//
// and keeps dispatching requests while the cost billed to the current
// opportunity stays below the allowance; the overshoot becomes the
// flow's surplus count. Three adaptations for live, concurrent
// service:
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
// WallERR is not safe for concurrent use; the dispatcher serializes
// all calls under the server lock (one arbiter per server, as the
// hardware has one arbiter per output port).
type refWallERR struct {
	weight  func(flow int) int64
	debtCap int64

	active queue.ActiveList
	sc     []int64

	round     int64
	rrvc      int // RoundRobinVisitCount
	maxSC     int64
	prevMaxSC int64

	// Open service opportunity, if any.
	current   int   // flow in service, or -1
	curOpp    int64 // token of the open opportunity
	allowance int64
	billed    int64 // cost billed to the open opportunity so far
	scAtOpen  int64 // flow's surplus when the opportunity opened
	curEmpty  bool  // flow's queue is empty (nothing left to dispatch)

	oppSeq   int64 // opportunity token generator
	inflight int   // dispatched requests not yet completed, all flows
}

// newRefWallERR returns a wall-clock weighted ERR scheduler. A nil
// weight function means weight 1 for every flow. debtCap bounds a
// flow's deferred surplus count (0 = unbounded); a few multiples of
// the largest plausible single-request cost is a good choice.
func newRefWallERR(weight func(flow int) int64, debtCap int64) *refWallERR {
	if weight == nil {
		weight = func(int) int64 { return 1 }
	}
	return &refWallERR{weight: weight, debtCap: debtCap, current: -1}
}

func (e *refWallERR) scRef(flow int) *int64 {
	if flow >= len(e.sc) {
		grown := make([]int64, flow+1)
		copy(grown, e.sc)
		e.sc = grown
	}
	return &e.sc[flow]
}

// OnArrival is called as WallERR's is. Unlike Figure 1 the
// surplus count is NOT reset when a drained flow re-activates — see
// the debt-persistence note on the type.
func (e *refWallERR) OnArrival(flow int, wasEmpty bool) {
	if flow == e.current {
		e.curEmpty = false
		return
	}
	if e.active.Contains(flow) {
		return
	}
	e.active.PushTail(flow)
}

// NextFlow is called as WallERR's is: it returns the flow whose
// head request should be dispatched next, or -1 when no flow has a
// dispatchable request. Closing opportunities and opening new ones
// (including zero-dispatch repayment visits) happens here.
func (e *refWallERR) NextFlow() int {
	for {
		if e.current != -1 {
			if !e.curEmpty && e.billed < e.allowance {
				return e.current // the do-while of Figure 1
			}
			e.closeOpportunity()
		}
		if e.active.Empty() {
			if e.inflight == 0 {
				// Fully idle: re-initialise round state as Figure 1's
				// Initialize would. Debts persist (see type comment).
				e.rrvc, e.maxSC, e.prevMaxSC, e.round = 0, 0, 0, 0
			}
			return -1
		}
		if e.rrvc <= 0 {
			e.prevMaxSC = e.maxSC
			e.maxSC = 0
			e.rrvc = e.active.Len()
			e.round++
		}
		flow := e.active.PopHead()
		w := e.weight(flow)
		if w < 1 {
			panic("serve: WallERR weight < 1")
		}
		e.oppSeq++
		e.current = flow
		e.curOpp = e.oppSeq
		e.scAtOpen = *e.scRef(flow)
		e.allowance = w*(1+e.prevMaxSC) - e.scAtOpen
		e.billed = 0
		e.curEmpty = false
		if e.allowance <= 0 {
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
func (e *refWallERR) closeOpportunity() {
	flow := e.current
	surplus := e.billed - e.allowance
	if surplus < 0 {
		// The flow drained (or is being revisited for repayment with
		// billed == 0): unused allowance is not banked — round-robin
		// schedulers carry debt, never credit.
		if e.curEmpty {
			surplus = 0
		}
		// For a repayment visit (allowance <= 0, billed == 0) surplus
		// is -allowance >= 0, so this branch is drain-only.
	}
	scp := e.scRef(flow)
	deferred := *scp - e.scAtOpen // completions billed past-close since open
	ns := surplus + deferred
	if ns < 0 {
		ns = 0
	}
	if e.debtCap > 0 && ns > e.debtCap {
		ns = e.debtCap
	}
	*scp = ns
	if ns > e.maxSC {
		// Figure 1's MaxSC update, generalized: tracking the largest
		// outstanding debt guarantees next round's allowances stay
		// positive for everyone (w*(1+MaxSC) - SC >= w when SC <= MaxSC).
		e.maxSC = ns
	}
	if !e.curEmpty {
		e.active.PushTail(flow)
	}
	e.current = -1
	e.rrvc--
}

// OnDispatch is called as WallERR's is: one request from the
// flow returned by NextFlow entered service. The request is billed
// the 1-unit provisional minimum now; OnServiceDone bills the rest.
func (e *refWallERR) OnDispatch(flow int, nowEmpty bool) int64 {
	if flow != e.current {
		panic("serve: WallERR dispatch for a flow not in service")
	}
	e.billed++
	e.inflight++
	e.curEmpty = nowEmpty
	return e.curOpp
}

// OnEvicted is called as WallERR's is: flow's queue lost
// requests without service. Only the in-service flow needs immediate
// bookkeeping (its opportunity must not keep polling an empty queue);
// an evicted-empty flow elsewhere on the active list simply drains at
// its next visit.
func (e *refWallERR) OnEvicted(flow int, nowEmpty bool) {
	if flow == e.current {
		e.curEmpty = nowEmpty
	}
}

// OnServiceDone is called as WallERR's is: a request dispatched
// under token completed at the measured cost. The excess over the
// provisional unit goes to the opportunity if it is still the open
// one, else straight to the flow's surplus count (deferred billing).
func (e *refWallERR) OnServiceDone(flow int, token int64, cost int64) {
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
	if flow == e.current && token == e.curOpp {
		e.billed += excess
		return
	}
	scp := e.scRef(flow)
	ns := *scp + excess
	if e.debtCap > 0 && ns > e.debtCap {
		ns = e.debtCap
	}
	*scp = ns
	if ns > e.maxSC {
		e.maxSC = ns
	}
}

// --- accessors for tests, metrics and invariant checks ---

// SurplusCount returns the flow's current surplus count (debt).
func (e *refWallERR) SurplusCount(flow int) int64 {
	if flow >= len(e.sc) {
		return 0
	}
	return e.sc[flow]
}

// Round returns the 1-based index of the round in progress (0 idle).
func (e *refWallERR) Round() int64 { return e.round }

// Inflight returns the number of dispatched, uncompleted requests.
func (e *refWallERR) Inflight() int { return e.inflight }

// CurrentFlow returns the flow with the open opportunity, or -1.
func (e *refWallERR) CurrentFlow() int { return e.current }

// IsActive reports whether the scheduler considers flow active.
func (e *refWallERR) IsActive(flow int) bool {
	return flow == e.current || e.active.Contains(flow)
}

// wallState is everything WallERR's accessors expose, for flows [0, n).
type wallState struct {
	Surplus           []int64
	Active            []bool
	Round             int64
	Inflight, Current int
}

// wallScheduler is the accessor surface both implementations share.
type wallScheduler interface {
	SurplusCount(flow int) int64
	Round() int64
	Inflight() int
	CurrentFlow() int
	IsActive(flow int) bool
}

func wallStateOf(e wallScheduler, n int) wallState {
	s := wallState{Round: e.Round(), Inflight: e.Inflight(), Current: e.CurrentFlow()}
	for f := 0; f < n; f++ {
		s.Surplus = append(s.Surplus, e.SurplusCount(f))
		s.Active = append(s.Active, e.IsActive(f))
	}
	return s
}

// runWallERRScript drives WallERR and refWallERR through one seeded
// random script the way the server does — request arrivals, a
// dispatcher with a few worker slots that retries a flow whose queue
// emptied by eviction, completions in random order at costs 0-39, and
// evictions — with random weights and debt cap, and fails on the
// first call after which they disagree: a NextFlow result, a dispatch
// token, or any accessor.
func runWallERRScript(t *testing.T, seed uint64, steps int) {
	src := rng.New(seed)
	flows := 1 + src.Intn(8)
	var weight func(int) int64
	if src.Bernoulli(0.7) {
		ws := make([]int64, flows)
		for f := range ws {
			ws[f] = int64(1 + src.Intn(4))
		}
		weight = func(f int) int64 { return ws[f] }
	}
	var debtCap int64
	if src.Bernoulli(0.5) {
		debtCap = int64(1 + src.Intn(60))
	}
	workers := 1 + src.Intn(6)
	e, ref := NewWallERR(weight, debtCap), newRefWallERR(weight, debtCap)
	queued := make([]int, flows)
	type request struct {
		flow      int
		tok, rtok int64
	}
	var inflight []request
	step := 0
	agree := func(what string) {
		t.Helper()
		same := e.Round() == ref.Round() && e.Inflight() == ref.Inflight() && e.CurrentFlow() == ref.CurrentFlow()
		for f := 0; same && f <= flows; f++ {
			same = e.SurplusCount(f) == ref.SurplusCount(f) && e.IsActive(f) == ref.IsActive(f)
		}
		if !same {
			t.Fatalf("seed %d (flows %d, cap %d, weighted %v) step %d, after %s: state\n  got  %+v\n  want %+v",
				seed, flows, debtCap, weight != nil, step, what, wallStateOf(e, flows+1), wallStateOf(ref, flows+1))
		}
	}
	for ; step < steps; step++ {
		switch op := src.Intn(10); {
		case op < 4: // a request arrives
			f := src.Intn(flows)
			e.OnArrival(f, queued[f] == 0)
			ref.OnArrival(f, queued[f] == 0)
			queued[f]++
			agree("OnArrival")
		case op < 7: // a free worker asks the dispatcher for work
			if len(inflight) >= workers {
				continue
			}
			for {
				f, rf := e.NextFlow(), ref.NextFlow()
				if f != rf {
					t.Fatalf("seed %d step %d: NextFlow = %d, reference %d", seed, step, f, rf)
				}
				agree("NextFlow")
				if f == -1 {
					break
				}
				if queued[f] == 0 {
					e.OnEvicted(f, true)
					ref.OnEvicted(f, true)
					agree("OnEvicted (dispatcher retry)")
					continue
				}
				queued[f]--
				tok, rtok := e.OnDispatch(f, queued[f] == 0), ref.OnDispatch(f, queued[f] == 0)
				if tok != rtok {
					t.Fatalf("seed %d step %d: OnDispatch token = %d, reference %d", seed, step, tok, rtok)
				}
				agree("OnDispatch")
				inflight = append(inflight, request{f, tok, rtok})
				break
			}
		case op < 9: // some handler returns
			if len(inflight) == 0 {
				continue
			}
			i := src.Intn(len(inflight))
			r := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			cost := int64(src.Intn(40))
			e.OnServiceDone(r.flow, r.tok, cost)
			ref.OnServiceDone(r.flow, r.rtok, cost)
			agree("OnServiceDone")
		default: // deadline expiry or shedding evicts queued requests
			f := src.Intn(flows)
			if queued[f] == 0 {
				continue
			}
			queued[f] -= 1 + src.Intn(queued[f])
			e.OnEvicted(f, queued[f] == 0)
			ref.OnEvicted(f, queued[f] == 0)
			agree("OnEvicted")
		}
	}
}

// TestWallERRMatchesReference requires WallERR, running on
// core.Rounds, to make every decision the pre-refactor WallERR made,
// over 400 random scripts of 3000 steps.
func TestWallERRMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		runWallERRScript(t, seed, 3000)
	}
}

// FuzzWallERRMatchesReference explores the same differential check
// beyond the fixed seeds: `go test -run='^$'
// -fuzz='^FuzzWallERRMatchesReference$' ./internal/serve`.
func FuzzWallERRMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runWallERRScript(t, seed, 3000)
	})
}
