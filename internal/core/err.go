// Package core implements the paper's contribution: the Elastic
// Round Robin (ERR) packet scheduler of Kanhere, Parekh & Sethu
// (IPDPS 2000), a transcription of the pseudo-code in the paper's
// Figure 1, plus the weighted extension from the authors' follow-up
// work and the tracing hooks used to regenerate Figure 3.
//
// ERR serves active flows in round-robin order. In round r flow i is
// given the elastic allowance
//
//	A_i(r) = w_i*(1 + MaxSC(r-1)) - SC_i(r-1)        (w_i = 1 in the paper)
//
// and keeps starting new packets while the flits it has sent this
// round remain below the allowance. The last packet may overshoot —
// the allowance is elastic — and the overshoot is remembered in the
// flow's surplus count SC_i(r) = Sent_i(r) - A_i(r), which shrinks
// the flow's allowance next round. MaxSC(r) is the largest surplus
// count observed in round r; adding 1 to the next round's allowance
// guarantees even the worst overshooter may send at least one packet.
//
// Crucially, every decision ("keep serving this flow?") depends only
// on service *already rendered*, never on the length of the packet
// about to be dequeued — which is why ERR works in wormhole switches
// where dequeue time is governed by downstream congestion. For the
// same reason ERR does not implement sched.LengthAware, and the
// compiler enforces that it never sees a length before dequeuing.
//
// All operations are O(1) in the number of flows (the paper's
// Theorem 1): the ActiveList is a linked FIFO and all counters are
// per-flow scalars.
package core

import "repro/internal/sched"

// TraceSink receives round-by-round events from an ERR scheduler.
// Used by cmd/errtrace to regenerate the content of the paper's
// Figure 3 and by the golden tests. A nil sink disables tracing.
type TraceSink interface {
	// RoundStart fires when a new round begins: its 1-based index,
	// the MaxSC of the previous round (PreviousMaxSC), and the number
	// of flows that will be visited (RoundRobinVisitCount).
	RoundStart(round int64, prevMaxSC int64, visits int)
	// Opportunity fires when a flow's service opportunity ends, with
	// the allowance it was given, the flits (or occupancy cycles) it
	// sent, its resulting surplus count, and whether it left the
	// active list because its queue drained.
	Opportunity(round int64, flow int, allowance, sent, surplus int64, left bool)
}

// ERR is the Elastic Round Robin scheduler. Create one with New or
// NewWeighted. ERR implements sched.Scheduler and is driven by an
// engine exactly like every baseline discipline. Its rounds are
// Figure 1's (Rounds); ERR bills each packet's cost to the open
// opportunity when the packet completes.
type ERR struct {
	rounds Rounds
	sent   int64 // Sent_i so far in the open opportunity

	// keepSurplusOnDrain is an ablation switch: when set, a flow that
	// drains keeps its surplus count instead of resetting it to zero
	// as Figure 1 specifies, so old bursts punish a flow after idle
	// periods. Used only by the ablation benchmarks.
	keepSurplusOnDrain bool
}

// New returns an unweighted ERR scheduler — the exact algorithm of
// the paper's Figure 1.
func New() *ERR { return NewWeighted(nil) }

// NewWeighted returns a weighted ERR scheduler with per-flow integer
// weights >= 1: flow i's allowance becomes w_i*(1 + MaxSC(r-1)) -
// SC_i(r-1), yielding throughput proportional to the weights. A nil
// weight function means weight 1 for every flow, i.e. the paper's
// unweighted algorithm.
func NewWeighted(weight func(flow int) int64) *ERR {
	return &ERR{rounds: NewRounds(weight)}
}

// SetTrace installs a trace sink (nil disables tracing).
func (e *ERR) SetTrace(t TraceSink) { e.rounds.trace = t }

// SetKeepSurplusOnDrain enables the ablation variant that does not
// reset a drained flow's surplus count (Figure 1 resets it). Set it
// before the first arrival. Only for the ablation experiments; the
// default false is the paper's algorithm.
func (e *ERR) SetKeepSurplusOnDrain(keep bool) { e.keepSurplusOnDrain = keep }

// Name implements sched.Scheduler.
func (e *ERR) Name() string { return "ERR" }

// OnArrival implements sched.Scheduler — the Enqueue routine of
// Figure 1. A flow that left the ActiveList by draining rejoins it
// with the surplus count its drain left: zero, or its last surplus
// under the ablation switch.
func (e *ERR) OnArrival(flow int, wasEmpty bool) { e.rounds.Join(flow) }

// NextFlow implements sched.Scheduler — the head of the Dequeue loop
// of Figure 1.
func (e *ERR) NextFlow() int {
	if e.rounds.cur != -1 {
		// Continue the opportunity in progress: the do-while of
		// Figure 1 keeps transmitting while Sent < Allowance.
		return e.rounds.cur
	}
	e.sent = 0
	flow, _ := e.rounds.Open()
	return flow
}

// OnPacketDone implements sched.Scheduler — the body and tail of the
// Dequeue loop. cost is the packet's length in flits, or its output-
// occupancy in cycles when the engine runs in wormhole mode; ERR is
// agnostic, it simply bills whatever the server measured.
func (e *ERR) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != e.rounds.cur {
		panic("core: ERR completion for a flow not in service")
	}
	if cost < 1 {
		panic("core: ERR packet cost < 1")
	}
	e.sent += cost
	if e.sent < e.rounds.allowance && !nowEmpty {
		return // opportunity continues; next packet starts
	}
	// The opportunity ends: record the surplus and rotate the list.
	surplus := e.sent - e.rounds.allowance
	carry := surplus
	if nowEmpty && !e.keepSurplusOnDrain {
		carry = 0
	}
	e.rounds.Close(surplus, carry, !nowEmpty)
	if e.rounds.n == 0 {
		// System gone idle: re-initialise the round state so a flow
		// arriving after an idle period starts from a clean slate.
		e.rounds.Reset()
	}
}

// --- accessors used by the invariant tests and the tracer ---

// SurplusCount returns SC of the given flow.
func (e *ERR) SurplusCount(flow int) int64 { return e.rounds.SurplusCount(flow) }

// MaxSC returns the largest surplus count observed so far in the
// round in progress.
func (e *ERR) MaxSC() int64 { return e.rounds.maxSC }

// PrevMaxSC returns MaxSC of the completed round.
func (e *ERR) PrevMaxSC() int64 { return e.rounds.prevMaxSC }

// Round returns the 1-based index of the round in progress (0 when
// idle).
func (e *ERR) Round() int64 { return e.rounds.round }

// VisitsLeft returns the RoundRobinVisitCount.
func (e *ERR) VisitsLeft() int { return e.rounds.rrvc }

// CurrentFlow returns the flow in service, or -1.
func (e *ERR) CurrentFlow() int { return e.rounds.cur }

// ActiveFlows returns the number of flows on the active list (the
// flow currently in service, if any, is not on the list).
func (e *ERR) ActiveFlows() int { return e.rounds.n }

// IsActive reports whether the scheduler considers flow active: on
// the ActiveList, or temporarily off it while in service. The
// runtime invariant checker uses this to audit ActiveList membership
// against queue backlog every cycle.
func (e *ERR) IsActive(flow int) bool { return e.rounds.IsActive(flow) }

// HeadOfLineSafe implements sched.HeadOfLineArb: ERR reschedules a
// flow itself when OnPacketDone reports remaining backlog, and never
// needs packet lengths in advance, so it can arbitrate a wormhole
// router output.
func (e *ERR) HeadOfLineSafe() {}

var (
	_ sched.Scheduler     = (*ERR)(nil)
	_ sched.HeadOfLineArb = (*ERR)(nil)
)
