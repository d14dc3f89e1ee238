// Package check is the runtime invariant checker of the
// reproduction: it attaches to a running simulation and continuously
// verifies the properties the paper proves (and the ones any wormhole
// switch must keep), reporting violations as structured,
// cycle-stamped errors instead of panics.
//
// Checked invariants, and where they come from:
//
//   - err.allowance — every ERR service opportunity grants an
//     allowance >= 1 (the paper's Section 3: "each flow gets an
//     opportunity to transmit at least one packet in each round").
//   - err.lemma1.upper — surplus count SC_i(r) <= m-1 where m is the
//     largest packet cost observed (Lemma 1 of the paper; with
//     occupancy billing m is the largest occupancy).
//   - err.lemma1.lower — SC_i(r) >= 0 for a flow that remains
//     backlogged (the other half of Lemma 1).
//   - err.theorem2 — the flits a flow sends over n consecutive rounds
//     of one busy period lie within n + Σ MaxSC ± (m-1) (Theorem 2;
//     checked offline on a recorded execution by VerifyTrace, which
//     also applies the three checks above).
//   - err.activelist — a flow is on the ActiveList (or in service)
//     exactly when it has backlog (Figure 1's Enqueue/Dequeue
//     bookkeeping).
//   - flit.conservation — flits injected == flits forwarded + flits
//     in flight; nothing is created, duplicated, or silently lost
//     (faults that drop flits are accounted separately by the
//     injector, so conservation still closes).
//   - flow.fifo — packets of one flow depart in arrival order
//     (wormhole switching forwards a packet's flits contiguously and
//     queues are FIFO, so cross-packet reordering within a flow is
//     impossible in a correct implementation).
//   - flit.stream — a delivered flit stream is well-formed per virtual
//     channel: head, bodies in sequence, tail, no interleaving of two
//     packets on one VC (wormhole contiguity at the ejection point).
//   - flit.destination — a flit leaves the network at the terminal it
//     is addressed to (a wrong route function delivers elsewhere).
//   - progress.watchdog — a backlogged system forwards at least one
//     flit every N cycles; tripping it means deadlock or livelock,
//     and the wormhole substrate can then dump its channel-wait
//     graph (wormhole.Router.WaitEdges) for diagnosis.
//
// Violations carry the last few cycle-stamped simulation events so a
// report is actionable without re-running under a debugger. The
// checker never panics and never alters simulation behaviour; it only
// observes (engine callbacks, core.TraceSink, sink flit streams).
// The paper's bound formulas (Lemma 1, Theorems 2 and 3, Table 1) live
// here too, so every check and every report reads one copy.
package check

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/queue"
)

// Invariant identifiers, as they appear in Violation.Invariant and in
// the obs registry ("check.violations.<invariant>").
const (
	InvAllowance    = "err.allowance"
	InvSurplusUpper = "err.lemma1.upper"
	InvSurplusLower = "err.lemma1.lower"
	InvTheorem2     = "err.theorem2"
	InvActiveList   = "err.activelist"
	InvConservation = "flit.conservation"
	InvFIFO         = "flow.fifo"
	InvStream       = "flit.stream"
	InvDestination  = "flit.destination"
	InvWatchdog     = "progress.watchdog"

	// Reported by the analytic-bounds harness (internal/bounds): a
	// packet's observed delay, or a flow's observed backlog, exceeded
	// the network-calculus bound computed for the configuration.
	InvDelayBound   = "bounds.delay"
	InvBacklogBound = "bounds.backlog"
)

// Violation is one detected invariant breach. It implements error.
type Violation struct {
	// Cycle is the simulation cycle at which the breach was detected.
	Cycle int64 `json:"cycle"`
	// Invariant is one of the Inv* identifiers.
	Invariant string `json:"invariant"`
	// Flow is the flow involved, or -1 when not flow-specific.
	Flow int `json:"flow"`
	// Detail is a human-readable description with the observed and
	// expected values.
	Detail string `json:"detail"`
	// Trace holds the most recent cycle-stamped simulation events
	// leading up to the breach, oldest first.
	Trace []string `json:"trace,omitempty"`
}

// Error implements error.
func (v *Violation) Error() string {
	if v.Flow >= 0 {
		return fmt.Sprintf("check: cycle %d: %s: flow %d: %s", v.Cycle, v.Invariant, v.Flow, v.Detail)
	}
	return fmt.Sprintf("check: cycle %d: %s: %s", v.Cycle, v.Invariant, v.Detail)
}

// ViolationError aggregates every violation a checker recorded.
type ViolationError struct {
	// Violations holds up to the checker's cap, in detection order.
	Violations []*Violation
	// Dropped counts violations beyond the cap.
	Dropped int
}

// Error implements error.
func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s)", len(e.Violations)+e.Dropped)
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.Error())
	}
	if e.Dropped > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", e.Dropped)
	}
	return b.String()
}

// Unwrap exposes the first violation to errors.Is/As.
func (e *ViolationError) Unwrap() error {
	if len(e.Violations) == 0 {
		return nil
	}
	return e.Violations[0]
}

// --- cycle-stamped event trace ----------------------------------------

// Event kinds recorded in the trace ring. Events are stored as plain
// integers and formatted only when a violation needs its trace, so
// tracing costs no allocation on the hot path.
const (
	evInject = iota
	evReject
	evDepart
	evRound
	evOpportunity
	evFlit
)

type event struct {
	cycle      int64
	kind       uint8
	a, b, c, d int64
}

func (e event) String() string {
	switch e.kind {
	case evInject:
		return fmt.Sprintf("c%-8d inject  flow=%d len=%d id=%d", e.cycle, e.a, e.b, e.c)
	case evReject:
		return fmt.Sprintf("c%-8d reject  flow=%d len=%d", e.cycle, e.a, e.b)
	case evDepart:
		return fmt.Sprintf("c%-8d depart  flow=%d id=%d occ=%d", e.cycle, e.a, e.b, e.c)
	case evRound:
		return fmt.Sprintf("c%-8d round   r=%d prevMaxSC=%d visits=%d", e.cycle, e.a, e.b, e.c)
	case evOpportunity:
		return fmt.Sprintf("c%-8d opp     flow=%d allow=%d sent=%d sc=%d", e.cycle, e.a, e.b, e.c, e.d)
	case evFlit:
		return fmt.Sprintf("c%-8d flit    flow=%d", e.cycle, e.a)
	}
	return fmt.Sprintf("c%-8d event kind=%d", e.cycle, e.kind)
}

// addEvent appends e to the recorder's trace, overwriting the oldest
// event once the trace holds DefaultTraceEvents.
func (r *Recorder) addEvent(e event) {
	if r.trace.Len() == r.trace.Cap() {
		r.trace.Pop()
	}
	r.trace.Push(e)
}

// dumpTrace returns the buffered events oldest-first, formatted.
func (r *Recorder) dumpTrace() []string {
	out := make([]string, r.trace.Len())
	for i := range out {
		out[i] = r.trace.At(i).String()
	}
	return out
}

// --- recorder ---------------------------------------------------------

// DefaultMaxViolations bounds how many violations a Recorder keeps in
// full (structured, with traces); further ones are only counted. A
// broken invariant usually breaks every cycle from then on — keeping
// the first few with traces is what makes the report useful.
const DefaultMaxViolations = 16

// DefaultTraceEvents is the number of trailing events attached to a
// violation.
const DefaultTraceEvents = 24

// Recorder accumulates violations and the rolling event trace they
// are stamped with. The zero value is not ready; use NewRecorder.
// Recorders are not safe for concurrent use — one per simulation, as
// with every other per-run structure.
type Recorder struct {
	max        int
	violations []*Violation
	dropped    int
	trace      queue.Ring[event]

	// counter, when set, counts every violation in an obs registry.
	counter *obs.Counter
}

// NewRecorder returns a recorder with the default caps.
func NewRecorder() *Recorder {
	r := &Recorder{max: DefaultMaxViolations}
	r.trace.Reserve(DefaultTraceEvents)
	return r
}

// Register wires the recorder's violation count into reg as the
// "check.violations" counter.
func (r *Recorder) Register(reg *obs.Registry) *Recorder {
	r.counter = reg.Counter("check.violations")
	return r
}

// Report records a violation from an external auditor (the flight
// recorder's span checks report through here, so trace violations
// land in the same store, caps, and obs counter as the built-in
// invariants). The signature matches trace.Audit's report sink.
func (r *Recorder) Report(cycle int64, invariant string, flow int, format string, argv ...any) {
	r.report(cycle, invariant, flow, format, argv...)
}

// report records a violation, stamping it with the trailing events.
func (r *Recorder) report(cycle int64, invariant string, flow int, format string, argv ...any) {
	if r.counter != nil {
		r.counter.Inc()
	}
	if len(r.violations) >= r.max {
		r.dropped++
		return
	}
	r.violations = append(r.violations, &Violation{
		Cycle:     cycle,
		Invariant: invariant,
		Flow:      flow,
		Detail:    fmt.Sprintf(format, argv...),
		Trace:     r.dumpTrace(),
	})
}

// Violations returns the recorded violations in detection order.
func (r *Recorder) Violations() []*Violation { return r.violations }

// Count returns the total number of violations detected, including
// those beyond the structured-storage cap.
func (r *Recorder) Count() int { return len(r.violations) + r.dropped }

// Err returns nil when no invariant was violated, else a
// *ViolationError aggregating everything recorded.
func (r *Recorder) Err() error {
	if r.Count() == 0 {
		return nil
	}
	return &ViolationError{Violations: r.violations, Dropped: r.dropped}
}

// AsViolations extracts the violations from an error produced by a
// Recorder (either a single *Violation or a *ViolationError).
func AsViolations(err error) []*Violation {
	var ve *ViolationError
	if errors.As(err, &ve) {
		return ve.Violations
	}
	var v *Violation
	if errors.As(err, &v) {
		return []*Violation{v}
	}
	return nil
}
