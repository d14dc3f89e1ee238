package check

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// The paper's bounds, as functions of m, the largest packet cost that
// occurred (in flits, or in cycles of occupancy at a wormhole output).

// ERRFairnessBound returns Theorem 3's bound on ERR's relative
// fairness measure: 3m.
func ERRFairnessBound(m int64) int64 { return 3 * m }

// DRRFairnessBound returns DRR's relative fairness bound from the
// paper's Table 1: Max + 2m, where Max is the largest packet that may
// potentially arrive (the quantum must be provisioned for it).
func DRRFairnessBound(m, max int64) int64 { return max + 2*m }

// FQFairnessBound returns the Table 1 bound for (ideal) Fair Queuing.
func FQFairnessBound(m int64) int64 { return m }

// SurplusBound returns Lemma 1's bound on any surplus count: m-1.
func SurplusBound(m int64) int64 { return m - 1 }

// ServiceBounds returns Theorem 2's bounds on the flits N a flow sends
// over n consecutive rounds k..k+n-1 of one busy period, if it is
// active in all of them:
//
//	n + Σ MaxSC(r) - (m-1) <= N <= n + Σ MaxSC(r) + (m-1)
//
// sumMaxSC is the sum over r = k-1..k+n-2, with MaxSC(0) = 0.
func ServiceBounds(n, sumMaxSC, m int64) (lo, hi int64) {
	return n + sumMaxSC - SurplusBound(m), n + sumMaxSC + SurplusBound(m)
}

// opportunity records one ERR service opportunity in the event trace
// and checks it: the allowance is at least 1 (every flow may send at
// least one packet per round) and the surplus lies in Lemma 1's
// [0, m-1]. A flow that drained is waived from the lower half: it may
// stop short of its allowance, and Figure 1 resets its surplus count.
func (r *Recorder) opportunity(cycle, m, round int64, flow int, allowance, sent, surplus int64, left bool) {
	r.trace.add(event{cycle: cycle, kind: evOpportunity, a: int64(flow), b: allowance, c: sent, d: surplus})
	if allowance < 1 {
		r.report(cycle, InvAllowance, flow,
			"round %d: allowance %d < 1 (every flow may send at least one packet per round)",
			round, allowance)
	}
	if surplus > SurplusBound(m) {
		r.report(cycle, InvSurplusUpper, flow,
			"round %d: surplus %d > m-1 = %d (Lemma 1)", round, surplus, SurplusBound(m))
	}
	if !left && surplus < 0 {
		r.report(cycle, InvSurplusLower, flow,
			"round %d: surplus %d < 0 for a backlogged flow (Lemma 1)", round, surplus)
	}
}

// VerifyTrace checks a recorded ERR execution against the paper: every
// opportunity as the runtime checker checks it (the allowance and
// Lemma 1), and Theorem 2 over every window of up to window
// consecutive complete rounds (window < 1 skips it). m is the largest
// packet cost that occurred. A window stays within one busy period:
// ERR numbers rounds from 1 again after going idle (Figure 1's
// Initialize), so each recorded round numbered 1 opens a new one.
// It returns nil, or a *ViolationError whose violations carry cycle
// -1 and the recorded events leading up to them.
func VerifyTrace(rec *core.TraceRecorder, m int64, window int) error {
	if m < 1 {
		return fmt.Errorf("check: m = %d: below 1", m)
	}
	r := NewRecorder()
	first := 0 // the busy period's first round
	for i, rd := range rec.Rounds {
		if rd.Round == 1 {
			first = i
		}
		r.trace.add(event{cycle: -1, kind: evRound, a: rd.Round, b: rd.PrevMaxSC, c: int64(rd.Visits)})
		for _, op := range rec.Opportunities(i) {
			r.opportunity(-1, m, op.Round, op.Flow, op.Allowance, op.Sent, op.Surplus, op.Left)
		}
		r.theorem2(rec, first, i, m, window)
	}
	return r.Err()
}

// theorem2 checks Theorem 2 over the windows of at most window
// complete rounds that end at recorded round last and start no earlier
// than first. A flow is covered by a window only if it has an
// opportunity in each of its rounds and drains in none.
func (r *Recorder) theorem2(rec *core.TraceRecorder, first, last int, m int64, window int) {
	for _, op := range rec.Opportunities(last) {
		var sent, sumMaxSC int64
		for k := last; k >= first && k > last-window && rec.Rounds[k].Complete(); k-- {
			ops := rec.Opportunities(k)
			j := slices.IndexFunc(ops, func(o core.RoundEvent) bool { return o.Flow == op.Flow })
			if j < 0 || ops[j].Left {
				break
			}
			sent += ops[j].Sent
			if k > first {
				sumMaxSC += rec.Rounds[k-1].MaxSC
			}
			if lo, hi := ServiceBounds(int64(last-k+1), sumMaxSC, m); sent < lo || sent > hi {
				r.report(-1, InvTheorem2, op.Flow, "rounds %d..%d: sent %d outside [%d, %d] (Theorem 2)",
					rec.Rounds[k].Round, rec.Rounds[last].Round, sent, lo, hi)
			}
		}
	}
}
