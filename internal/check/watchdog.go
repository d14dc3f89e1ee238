package check

// Watchdog detects deadlock and livelock: a system with backlog that
// forwards nothing for Limit cycles is wedged — either a circular
// channel-wait (deadlock, e.g. a dropped tail flit leaving a
// downstream packet open forever) or starvation (livelock). The
// watchdog only detects; the caller decides how to abort and what to
// dump (the wormhole substrate offers Router.WaitEdges, which the noc
// kernel's wedge report, noc.Mesh.Wedged, gathers into the
// channel-wait graph).
//
// Usage: call Progress on every forwarded/delivered flit and Expired
// once per cycle with the current backlog. Expired trips at most
// once.
type Watchdog struct {
	// Limit is the no-progress budget in cycles.
	Limit int64

	last    int64
	tripped bool
}

// NewWatchdog returns a watchdog with the given no-progress budget in
// cycles. Size it generously: a legitimate transient stall (e.g. a
// fault window, or a deep congestion tree draining) must fit under
// the limit or the watchdog will cry wolf.
func NewWatchdog(limit int64) *Watchdog {
	if limit < 1 {
		panic("check: watchdog limit < 1")
	}
	return &Watchdog{Limit: limit}
}

// Progress records that a flit moved at cycle.
func (w *Watchdog) Progress(cycle int64) {
	if cycle > w.last {
		w.last = cycle
	}
}

// Expired reports whether the watchdog trips at cycle given the
// current backlog. An empty system cannot be wedged, so backlog == 0
// resets the no-progress clock. Returns true only on the tripping
// call; afterwards the watchdog stays Tripped but Expired returns
// false, so the caller reports once.
func (w *Watchdog) Expired(cycle, backlog int64) bool {
	if w.tripped {
		return false
	}
	if backlog <= 0 {
		w.Progress(cycle)
		return false
	}
	if cycle-w.last >= w.Limit {
		w.tripped = true
		return true
	}
	return false
}

// Tripped reports whether the watchdog has ever expired.
func (w *Watchdog) Tripped() bool { return w.tripped }

// ExpiresAt returns the cycle at which the watchdog would trip absent
// further progress: last recorded progress plus the budget. Callers
// that jump time event-to-event instead of stepping cycle-by-cycle
// (noc.Mesh time skipping) use it to consult Expired at the exact
// trip cycle before skipping past it, so a wedged-but-quiet network
// still gets its deadlock dump at the same cycle a stepped run would
// produce it.
func (w *Watchdog) ExpiresAt() int64 { return w.last + w.Limit }
