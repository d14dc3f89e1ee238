package obs

import (
	"repro/internal/engine"
	"repro/internal/flit"
)

// Collector turns the engine's observation callbacks (OnFlit, OnIdle,
// OnStall, OnDeparture, OnInject) into registry metrics without
// touching simulation semantics: Wire chains onto whatever callbacks
// a Config already carries, so existing consumers (ServiceLog,
// FairnessTracker, delay stats) keep seeing exactly the events they
// saw before.
//
// Per forwarded flit the cost is one atomic add on a Vec cell plus a
// counter increment; histograms are only touched at packet
// granularity (departures) and at injections, which are orders of
// magnitude rarer than cycles.
type Collector struct {
	// FlitsServed counts forwarded flits per flow.
	FlitsServed *Vec
	// FlitCycles / IdleCycles / StallCycles partition every observed
	// cycle: forwarding, idle, or occupied-but-blocked.
	FlitCycles  *Counter
	IdleCycles  *Counter
	StallCycles *Counter
	// Injections / Departures count packets entering and leaving the
	// system.
	Injections *Counter
	Departures *Counter
	// Delay is the distribution of packet delays (enqueue to tail-flit
	// dequeue, the Figure 5 metric), log2 buckets.
	Delay *Histogram
	// Occupancy is the distribution of per-packet output occupancy in
	// cycles (== length without stalls), log2 buckets.
	Occupancy *Histogram
	// StallPerPacket is the distribution of stall cycles billed to
	// each departed packet (occupancy - length), log2 buckets.
	StallPerPacket *Histogram
	// Backlog tracks the packets currently in the system
	// (injected - departed); BacklogHighWater is its high-water mark.
	Backlog          *Gauge
	BacklogHighWater *Gauge
	// SourcePolls counts the cycles in which engines asked their
	// Source for arrivals. The engine counts them itself (no callback
	// sees a poll); the code running the engine adds
	// Engine.SourcePolls after each run, as RunSim does.
	SourcePolls *Counter
}

// NewCollector registers a collector's metrics in reg under the
// "engine." prefix and returns it. flows sizes the per-flow vector.
func NewCollector(reg *Registry, flows int) *Collector {
	return &Collector{
		FlitsServed:      reg.Vec("engine.flits_served", flows),
		FlitCycles:       reg.Counter("engine.flit_cycles"),
		IdleCycles:       reg.Counter("engine.idle_cycles"),
		StallCycles:      reg.Counter("engine.stall_cycles"),
		Injections:       reg.Counter("engine.injections"),
		Departures:       reg.Counter("engine.departures"),
		Delay:            reg.Histogram("engine.packet_delay_cycles", HistogramOpts{Log2: true}),
		Occupancy:        reg.Histogram("engine.packet_occupancy_cycles", HistogramOpts{Log2: true}),
		StallPerPacket:   reg.Histogram("engine.packet_stall_cycles", HistogramOpts{Log2: true}),
		Backlog:          reg.Gauge("engine.backlog_packets"),
		BacklogHighWater: reg.Gauge("engine.backlog_packets_high_water"),
		SourcePolls:      reg.Counter("engine.source_polls"),
	}
}

// Wire chains the collector onto cfg's callbacks. It must be called
// after cfg's own callbacks are assigned and before engine.NewEngine
// consumes the config. Wiring preserves the engine's OnStall-fallback
// contract: if cfg had no OnStall, stall cycles keep flowing to the
// pre-existing OnIdle (in addition to being counted as stalls here),
// so a consumer that accounted every non-forwarding cycle via OnIdle
// still does.
func (c *Collector) Wire(cfg *engine.Config) {
	prevFlit := cfg.OnFlit
	cfg.OnFlit = func(cycle int64, flow int) {
		c.FlitCycles.Inc()
		c.FlitsServed.Add(flow, 1)
		if prevFlit != nil {
			prevFlit(cycle, flow)
		}
	}
	prevIdle := cfg.OnIdle
	cfg.OnIdle = func(cycle int64) {
		c.IdleCycles.Inc()
		if prevIdle != nil {
			prevIdle(cycle)
		}
	}
	prevStall := cfg.OnStall
	cfg.OnStall = func(cycle int64, flow int) {
		c.StallCycles.Inc()
		if prevStall != nil {
			prevStall(cycle, flow)
		} else if prevIdle != nil {
			prevIdle(cycle)
		}
	}
	prevDep := cfg.OnDeparture
	cfg.OnDeparture = func(p flit.Packet, cycle, occupancy int64) {
		c.Departures.Inc()
		c.Delay.Observe(cycle - p.Arrival + 1)
		c.Occupancy.Observe(occupancy)
		c.StallPerPacket.Observe(occupancy - int64(p.Length))
		c.Backlog.Add(-1)
		if prevDep != nil {
			prevDep(p, cycle, occupancy)
		}
	}
	prevInj := cfg.OnInject
	cfg.OnInject = func(p flit.Packet, cycle int64) {
		c.Injections.Inc()
		c.BacklogHighWater.SetMax(c.Backlog.Add(1))
		if prevInj != nil {
			prevInj(p, cycle)
		}
	}
}
