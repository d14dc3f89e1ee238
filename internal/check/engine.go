package check

import (
	"repro/internal/engine"
	"repro/internal/flit"
)

// ActiveAuditor is the scheduler-side hook for the ActiveList
// membership audit. *core.ERR implements it; schedulers that do not
// simply skip that check.
type ActiveAuditor interface {
	// IsActive reports whether the scheduler considers flow active
	// (on its active list, or temporarily off it while in service).
	IsActive(flow int) bool
}

// EngineChecker audits a single-server engine run. It wires onto the
// engine's observation callbacks exactly like obs.Collector — no
// simulation semantics are touched — and, when installed as the ERR
// trace sink, verifies Lemma 1 on every service opportunity.
//
// Usage:
//
//	chk := check.NewEngineChecker(flows)
//	chk.Wire(&ecfg)              // before engine.NewEngine
//	errSched.SetTrace(chk)       // Lemma 1 (optional, ERR only)
//	e, _ := engine.NewEngine(ecfg)
//	chk.Attach(e, errSched)      // conservation + ActiveList audits
//	for i := int64(0); i < cycles; i++ {
//		e.Step()
//		chk.Tick()
//	}
//	err := chk.Err()             // nil, or *check.ViolationError
type EngineChecker struct {
	*Recorder

	flows int
	eng   *engine.Engine
	audit ActiveAuditor

	// Watchdog, when set, is consulted by Tick against the engine's
	// backlog. Forwarded flits feed its progress.
	Watchdog *Watchdog

	injected int64 // flits admitted (post-validation)
	served   int64 // flits forwarded
	maxCost  int64 // m: largest per-packet cost (occupancy) observed
	lastID   []int64

	// lemma1 tracks whether Opportunity events are flowing (the
	// checker is the ERR trace sink), enabling the Lemma 1 checks.
	lemma1 bool
}

// NewEngineChecker returns a checker for an engine with the given
// flow count.
func NewEngineChecker(flows int) *EngineChecker {
	c := &EngineChecker{
		Recorder: NewRecorder(),
		flows:    flows,
		lastID:   make([]int64, flows),
	}
	for i := range c.lastID {
		c.lastID[i] = -1
	}
	return c
}

// Wire chains the checker onto cfg's callbacks; call before
// engine.NewEngine consumes the config.
func (c *EngineChecker) Wire(cfg *engine.Config) {
	prevInj := cfg.OnInject
	cfg.OnInject = func(p flit.Packet, cycle int64) {
		c.injected += int64(p.Length)
		c.trace.add(event{cycle: cycle, kind: evInject, a: int64(p.Flow), b: int64(p.Length), c: p.ID})
		if prevInj != nil {
			prevInj(p, cycle)
		}
	}
	prevRej := cfg.OnReject
	cfg.OnReject = func(p flit.Packet, cycle int64, err error) {
		// Rejected packets are not violations — rejection is the
		// correct handling of malformed traffic — but they belong in
		// the event trace.
		c.trace.add(event{cycle: cycle, kind: evReject, a: int64(p.Flow), b: int64(p.Length)})
		if prevRej != nil {
			prevRej(p, cycle, err)
		}
	}
	prevFlit := cfg.OnFlit
	cfg.OnFlit = func(cycle int64, flow int) {
		c.served++
		if c.Watchdog != nil {
			c.Watchdog.Progress(cycle)
		}
		if prevFlit != nil {
			prevFlit(cycle, flow)
		}
	}
	prevDep := cfg.OnDeparture
	cfg.OnDeparture = func(p flit.Packet, cycle, occupancy int64) {
		if occupancy > c.maxCost {
			c.maxCost = occupancy
		}
		c.trace.add(event{cycle: cycle, kind: evDepart, a: int64(p.Flow), b: p.ID, c: occupancy})
		if p.Flow >= 0 && p.Flow < len(c.lastID) {
			if p.ID <= c.lastID[p.Flow] {
				c.report(cycle, InvFIFO, p.Flow,
					"packet %d departed after packet %d of the same flow", p.ID, c.lastID[p.Flow])
			}
			c.lastID[p.Flow] = p.ID
		}
		if prevDep != nil {
			prevDep(p, cycle, occupancy)
		}
	}
}

// Attach gives the checker the engine (for backlog queries during
// Tick) and optionally the scheduler for the ActiveList audit; pass
// sched nil (or a scheduler that is not an ActiveAuditor) to skip
// that check.
func (c *EngineChecker) Attach(e *engine.Engine, sched any) {
	c.eng = e
	if a, ok := sched.(ActiveAuditor); ok {
		c.audit = a
	}
}

// Tick runs the per-cycle audits: flit conservation, ActiveList
// consistency, and the watchdog. Call after each engine.Step.
func (c *EngineChecker) Tick() {
	if c.eng == nil {
		return
	}
	cycle := c.eng.Cycle()
	if inFlight := c.eng.BacklogFlits(); c.injected != c.served+inFlight {
		c.report(cycle, InvConservation, -1,
			"injected %d flits != served %d + in-flight %d", c.injected, c.served, inFlight)
	}
	if c.audit != nil {
		for flow := 0; flow < c.flows; flow++ {
			backlogged := c.eng.QueueLen(flow) > 0
			active := c.audit.IsActive(flow)
			if backlogged != active {
				c.report(cycle, InvActiveList, flow,
					"backlogged=%v but ActiveList membership=%v", backlogged, active)
			}
		}
	}
	if c.Watchdog != nil && c.Watchdog.Expired(cycle, int64(c.eng.Backlog())) {
		c.report(cycle, InvWatchdog, -1,
			"no flit forwarded for %d cycles with %d packets backlogged (deadlock or livelock)",
			c.Watchdog.Limit, c.eng.Backlog())
	}
}

// RoundStart implements core.TraceSink.
func (c *EngineChecker) RoundStart(round, prevMaxSC int64, visits int) {
	c.trace.add(event{cycle: c.cycle(), kind: evRound, a: round, b: prevMaxSC, c: int64(visits)})
}

// Opportunity implements core.TraceSink — the allowance and Lemma 1
// checks. The surplus bound uses m = the largest packet cost observed
// so far (packet departures precede the Opportunity event for the
// same packet, so m is current).
func (c *EngineChecker) Opportunity(round int64, flow int, allowance, sent, surplus int64, left bool) {
	c.lemma1 = true
	c.opportunity(c.cycle(), c.maxCost, round, flow, allowance, sent, surplus, left)
}

// cycle returns the engine's cycle, or -1 before Attach.
func (c *EngineChecker) cycle() int64 {
	if c.eng == nil {
		return -1
	}
	return c.eng.Cycle()
}

// Lemma1Checked reports whether any ERR opportunity events were
// actually observed — a guard for tests that would otherwise pass
// vacuously with the trace sink left uninstalled.
func (c *EngineChecker) Lemma1Checked() bool { return c.lemma1 }
