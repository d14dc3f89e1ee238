package sched

import "time"

// CostClock quantizes measured wall-clock service durations into the
// integer cost units a scheduler bills when it schedules real work —
// HTTP requests whose cost is the time a handler takes — instead of
// simulated packets. As with a wormhole packet's occupancy, the cost
// is known only once the work completes (see serve.WallERR). The unit
// is the granularity of fairness: with Unit = 1ms, two requests that
// both finish in under a millisecond cost the same, and a 5s handler
// costs 5000 units.
type CostClock struct {
	// Unit is the duration of one cost unit. A zero or negative Unit
	// defaults to one millisecond.
	Unit time.Duration
}

// Cost returns the cost of a service that took d, rounding up and
// clamping to a minimum of 1 so that even a free request consumes one
// unit of its flow's allowance (a scheduler cost must be >= 1).
func (c CostClock) Cost(d time.Duration) int64 {
	unit := c.Unit
	if unit <= 0 {
		unit = time.Millisecond
	}
	if d <= 0 {
		return 1
	}
	n := int64((d + unit - 1) / unit)
	if n < 1 {
		n = 1
	}
	return n
}
