package core

// RoundEvent is one flow's service opportunity as seen by a TraceRecorder.
type RoundEvent struct {
	Round     int64
	Flow      int
	Allowance int64
	Sent      int64
	Surplus   int64
	Left      bool // the flow drained and left the active list
}

// RoundInfo is one recorded round: its start, as RoundStart reported
// it, and the opportunities the recorder paired with it.
type RoundInfo struct {
	Round     int64
	PrevMaxSC int64
	Visits    int
	// First and End delimit the round's opportunities in the
	// recorder's Events, in service order: Events[First:End].
	First, End int
	// MaxSC is MaxSC(r) of Figure 1: the largest surplus among the
	// round's opportunities, or 0.
	MaxSC int64
}

// Complete reports whether the recording holds every visit the round
// counted; only a recording that stops mid-round leaves one short.
func (ri RoundInfo) Complete() bool { return ri.End-ri.First == ri.Visits }

// TraceRecorder collects ERR round events in memory and pairs each
// opportunity with its round as it is recorded: ERR numbers rounds
// from 1 again after it goes idle, so a round number alone does not
// name a round. It powers the golden tests of the paper's Figure 3,
// cmd/errtrace and the offline theorem checks (check.VerifyTrace).
type TraceRecorder struct {
	Rounds []RoundInfo
	Events []RoundEvent
}

// RoundStart implements TraceSink.
func (r *TraceRecorder) RoundStart(round, prevMaxSC int64, visits int) {
	n := len(r.Events)
	r.Rounds = append(r.Rounds, RoundInfo{Round: round, PrevMaxSC: prevMaxSC, Visits: visits, First: n, End: n})
}

// Opportunity implements TraceSink. The opportunity belongs to the
// round started last, so a round must have started.
func (r *TraceRecorder) Opportunity(round int64, flow int, allowance, sent, surplus int64, left bool) {
	r.Events = append(r.Events, RoundEvent{
		Round: round, Flow: flow,
		Allowance: allowance, Sent: sent, Surplus: surplus, Left: left,
	})
	cur := &r.Rounds[len(r.Rounds)-1]
	cur.End = len(r.Events)
	cur.MaxSC = max(cur.MaxSC, surplus)
}

// Opportunities returns the opportunities of the i-th recorded round,
// in service order.
func (r *TraceRecorder) Opportunities(i int) []RoundEvent {
	return r.Events[r.Rounds[i].First:r.Rounds[i].End]
}

var _ TraceSink = (*TraceRecorder)(nil)
