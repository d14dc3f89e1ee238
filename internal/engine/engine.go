// Package engine is the cycle-driven single-server simulator behind
// the paper's Section 5 experiments: n flows with FIFO packet queues,
// a scheduler arbitrating access to one output that forwards one flit
// per cycle, and an optional downstream-stall model that makes a
// packet's occupancy of the output exceed its length — the defining
// wormhole phenomenon ("a packet of length L ... may take more than
// L/C seconds for transmission").
//
// The engine drives either a packet-granularity sched.Scheduler (ERR,
// DRR, PBRR, FCFS, ...) or a flit-granularity sched.FlitScheduler
// (FBRR). Packet-granularity service keeps a packet's flits
// contiguous on the output, as wormhole switching requires when
// scheduling into an output queue.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// StallModel injects downstream congestion: before each flit of a
// packet is forwarded, the model returns how many cycles the output
// stays blocked. A nil model means no stalls (classic store-and-
// forward timing, occupancy == length).
type StallModel interface {
	// FlitStall returns the stall cycles preceding the next flit of
	// the given flow's current packet (>= 0).
	FlitStall(flow int) int
}

// StallFunc adapts a function to a StallModel.
type StallFunc func(flow int) int

// FlitStall implements StallModel.
func (f StallFunc) FlitStall(flow int) int { return f(flow) }

// CycleStallModel is an optional extension of StallModel for models
// that need the current cycle — fault injectors stalling a link
// during a configured window, time-varying congestion. When the
// configured Stall implements it, the engine calls FlitStallAt
// instead of FlitStall.
type CycleStallModel interface {
	StallModel
	// FlitStallAt returns the stall cycles preceding the next flit of
	// the given flow's current packet when that flit becomes eligible
	// at the given cycle (>= 0).
	FlitStallAt(flow int, cycle int64) int
}

// Config configures an Engine. Exactly one of Scheduler or FlitSched
// must be set.
type Config struct {
	// Flows is the number of flows (queues).
	Flows int
	// Scheduler is a packet-granularity discipline.
	Scheduler sched.Scheduler
	// FlitSched is a flit-granularity discipline (FBRR).
	FlitSched sched.FlitScheduler
	// Source generates arrivals; nil means no arrivals (packets may
	// still be injected with Inject). A Source that also implements
	// traffic.Quieter is not polled while its promise holds.
	Source traffic.Source
	// Stall models downstream congestion. When set with a
	// sched.LengthAware Scheduler, NewEngine fails unless
	// AllowLengthAwareStalls is set: a discipline that budgets
	// a-priori lengths has no meaningful occupancy accounting, which
	// is the paper's argument for why DRR cannot serve a wormhole
	// switch. The override exists for the ablation experiments that
	// quantify exactly that failure.
	Stall                  StallModel
	AllowLengthAwareStalls bool

	// OnFlit, if set, observes every cycle in which a flit is
	// forwarded (flow id) — the feed for metrics.ServiceLog and
	// metrics.FairnessTracker.
	OnFlit func(cycle int64, flow int)
	// OnIdle, if set, observes cycles in which no flit is forwarded
	// and no packet occupies the output.
	OnIdle func(cycle int64)
	// OnStall, if set, observes cycles in which the output is
	// occupied by a packet of the given flow but downstream
	// congestion blocked the flit — occupancy without service, the
	// wormhole phenomenon. When OnStall is nil such cycles are
	// reported to OnIdle instead (so OnIdle alone still accounts for
	// every non-forwarding cycle).
	OnStall func(cycle int64, flow int)
	// OnDeparture, if set, observes packet completions: the packet,
	// the cycle its tail flit left, and its occupancy in cycles
	// (== length when there are no stalls).
	OnDeparture func(p flit.Packet, cycle int64, occupancy int64)
	// OnInject, if set, observes every packet admitted to a queue
	// (after the engine stamps Arrival and ID) — the counterpart of
	// OnDeparture that lets an observer track the in-flight backlog
	// without polling.
	OnInject func(p flit.Packet, cycle int64)
	// OnReject, if set, observes malformed packets refused at
	// injection (zero-length, bad flow id) with the typed validation
	// error. Rejected packets never enter a queue and never reach the
	// scheduler; a nil OnReject simply drops them silently. Arrivals
	// from a Source are validated the same way, so a fault-injected
	// source degrades into counted rejections instead of a panic.
	OnReject func(p flit.Packet, cycle int64, err error)
}

// Engine simulates the configured system cycle by cycle.
type Engine struct {
	cfg    Config
	queues []queue.PacketQueue
	cycle  int64
	nextID int64

	// Packet-granularity service state.
	inService bool
	current   flit.Packet
	sentFlits int
	occupancy int64
	stallLeft int

	// Flit-granularity service state: per-flow partial packet.
	partial   []flit.Packet
	remaining []int
	// partialFlows counts flows with remaining > 0, so the per-cycle
	// pending check and Backlog are O(1) instead of O(flows).
	partialFlows int

	backlogPackets int
	// backlogFlits counts flits injected but not yet forwarded, so
	// conservation audits (injected = forwarded + in flight) are O(1).
	backlogFlits int64
	rejected     int64

	// clock is the Scheduler's sched.ClockAware side, nil without it.
	clock sched.ClockAware
	// quieter is the Source's traffic.Quieter side, nil without it.
	// quiet memoizes its promise: set after a poll it answered true,
	// cleared by every change of a queue length (an injection, a
	// departure), so Step skips exactly the polls that would return
	// nothing and draw no randomness.
	quieter traffic.Quieter
	quiet   bool
	polls   int64
	// changes counts the events that can change a queue length and
	// lastChange names the flow of the latest (see QueueChanges).
	changes    uint64
	lastChange int
}

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Flows < 1 {
		return nil, errors.New("engine: Flows must be >= 1")
	}
	if (cfg.Scheduler == nil) == (cfg.FlitSched == nil) {
		return nil, errors.New("engine: exactly one of Scheduler or FlitSched must be set")
	}
	if cfg.Stall != nil && cfg.Scheduler != nil && !cfg.AllowLengthAwareStalls {
		if _, ok := cfg.Scheduler.(sched.LengthAware); ok {
			return nil, errors.New("engine: length-aware scheduler cannot run with a stall model (see Config.AllowLengthAwareStalls)")
		}
	}
	e := &Engine{
		cfg:    cfg,
		queues: make([]queue.PacketQueue, cfg.Flows),
	}
	if cfg.FlitSched != nil {
		e.partial = make([]flit.Packet, cfg.Flows)
		e.remaining = make([]int, cfg.Flows)
	}
	e.clock, _ = cfg.Scheduler.(sched.ClockAware)
	e.quieter, _ = cfg.Source.(traffic.Quieter)
	return e, nil
}

// QueueLen implements traffic.QueueView: queued packets of a flow,
// including any packet in service.
func (e *Engine) QueueLen(flow int) int {
	n := e.queues[flow].Len()
	if e.cfg.Scheduler != nil {
		if e.inService && e.current.Flow == flow {
			n++
		}
	} else if e.remaining[flow] > 0 {
		n++
	}
	return n
}

// QueueChanges returns the number of events so far that can change a
// QueueLen, and the flow of the latest: every Inject call, every
// departure in packet mode and every end of packet in flit mode. A
// rejected Inject changes no queue but is counted too, so a source
// whose k returned packets were just injected sees exactly k more
// events unless something else also happened. traffic.Multi reads it
// to re-poll only the children that one change can wake.
func (e *Engine) QueueChanges() (n uint64, last int) { return e.changes, e.lastChange }

// changed records an event that can change flow's queue length; it
// voids the source's promise.
func (e *Engine) changed(flow int) {
	e.quiet = false
	e.changes++
	e.lastChange = flow
}

// Cycle returns the current simulation cycle.
func (e *Engine) Cycle() int64 { return e.cycle }

// BacklogFlits returns the number of flits injected but not yet
// forwarded (including the unsent remainder of any packet in
// service) — the in-flight term of the flit-conservation invariant.
func (e *Engine) BacklogFlits() int64 { return e.backlogFlits }

// Rejected returns the number of malformed packets refused at
// injection.
func (e *Engine) Rejected() int64 { return e.rejected }

// SourcePolls returns the number of cycles in which the Source was
// asked for arrivals: every cycle, except those a traffic.Quieter
// source promised would bring none.
func (e *Engine) SourcePolls() int64 { return e.polls }

// Backlog returns the number of packets not yet fully served
// (including any in service).
func (e *Engine) Backlog() int {
	n := e.backlogPackets
	if e.cfg.Scheduler != nil {
		if e.inService {
			n++
		}
	} else {
		n += e.partialFlows
	}
	return n
}

// Inject offers a packet to the engine (used by traffic sources,
// tests and the switch substrate); the packet's Arrival and ID are
// stamped by the engine. Malformed packets — zero-length, flow id
// outside [0, Flows) — are rejected with a typed error (see
// flit.ErrZeroLength, flit.ErrBadFlow), reported to OnReject, and
// never reach a queue or the scheduler.
func (e *Engine) Inject(p flit.Packet) error {
	e.changed(p.Flow)
	err := p.Validate()
	if err == nil && p.Flow >= e.cfg.Flows {
		err = fmt.Errorf("%w: flow %d >= %d flows", flit.ErrBadFlow, p.Flow, e.cfg.Flows)
	}
	if err != nil {
		e.rejected++
		if e.cfg.OnReject != nil {
			e.cfg.OnReject(p, e.cycle, err)
		}
		return err
	}
	p.Arrival = e.cycle
	p.ID = e.nextID
	e.nextID++
	q := &e.queues[p.Flow]
	wasEmpty := q.Empty() && !e.flowBusy(p.Flow)
	q.Push(p)
	e.backlogPackets++
	e.backlogFlits += int64(p.Length)
	if s := e.cfg.Scheduler; s != nil {
		s.OnArrival(p.Flow, wasEmpty)
		if la, ok := s.(sched.LengthAware); ok {
			la.OnArrivalLength(p.Flow, p.Length)
		}
	} else {
		e.cfg.FlitSched.OnArrival(p.Flow, wasEmpty)
	}
	if e.cfg.OnInject != nil {
		e.cfg.OnInject(p, e.cycle)
	}
	return nil
}

// flowBusy reports whether flow has a packet mid-service.
func (e *Engine) flowBusy(flow int) bool {
	if e.cfg.Scheduler != nil {
		return e.inService && e.current.Flow == flow
	}
	return e.remaining[flow] > 0
}

// Step advances the simulation by one cycle: arrivals first (unless
// the Source promised none until a queue length changes), then at
// most one flit (or stall) of service.
func (e *Engine) Step() {
	if e.clock != nil {
		e.clock.SetNow(e.cycle)
	}
	if e.cfg.Source != nil && !e.quiet {
		e.polls++
		for _, p := range e.cfg.Source.Arrivals(e.cycle, e) {
			e.Inject(p)
		}
		e.quiet = e.quieter != nil && e.quieter.QuietAfter(e.cycle, e)
	}
	if e.cfg.Scheduler != nil {
		e.stepPacketMode()
	} else {
		e.stepFlitMode()
	}
	e.cycle++
}

func (e *Engine) stepPacketMode() {
	if !e.inService {
		if e.backlogPackets == 0 {
			e.idle()
			return
		}
		flow := e.cfg.Scheduler.NextFlow()
		q := &e.queues[flow]
		if q.Empty() {
			panic("engine: scheduler selected an empty flow")
		}
		e.current = q.Pop()
		e.backlogPackets--
		e.inService = true
		e.sentFlits = 0
		e.occupancy = 0
		e.stallLeft = e.stall(flow)
	}
	e.occupancy++
	if e.stallLeft > 0 {
		e.stallLeft--
		if e.cfg.OnStall != nil {
			e.cfg.OnStall(e.cycle, e.current.Flow)
		} else {
			e.idle()
		}
		return
	}
	// Forward one flit.
	e.sentFlits++
	e.backlogFlits--
	if e.cfg.OnFlit != nil {
		e.cfg.OnFlit(e.cycle, e.current.Flow)
	}
	if e.sentFlits < e.current.Length {
		e.stallLeft = e.stall(e.current.Flow)
		return
	}
	// Tail flit forwarded: the packet departs.
	e.inService = false
	e.changed(e.current.Flow)
	if e.cfg.OnDeparture != nil {
		e.cfg.OnDeparture(e.current, e.cycle, e.occupancy)
	}
	e.cfg.Scheduler.OnPacketDone(e.current.Flow, e.occupancy, e.queues[e.current.Flow].Empty())
}

func (e *Engine) stepFlitMode() {
	// Any flow with a partial packet or queued packets has flits;
	// backlogPackets counts the queued ones and partialFlows the
	// mid-service ones, so the check is O(1).
	if e.backlogPackets == 0 && e.partialFlows == 0 {
		e.idle()
		return
	}
	flow := e.cfg.FlitSched.NextFlow()
	if e.remaining[flow] == 0 {
		q := &e.queues[flow]
		if q.Empty() {
			panic("engine: flit scheduler selected an empty flow")
		}
		e.partial[flow] = q.Pop()
		e.backlogPackets--
		e.remaining[flow] = e.partial[flow].Length
		e.partialFlows++
	}
	e.remaining[flow]--
	e.backlogFlits--
	if e.remaining[flow] == 0 {
		e.partialFlows--
	}
	if e.cfg.OnFlit != nil {
		e.cfg.OnFlit(e.cycle, flow)
	}
	end := e.remaining[flow] == 0
	if end {
		e.changed(flow)
		if e.cfg.OnDeparture != nil {
			e.cfg.OnDeparture(e.partial[flow], e.cycle, int64(e.partial[flow].Length))
		}
	}
	nowEmpty := end && e.queues[flow].Empty()
	e.cfg.FlitSched.OnFlitDone(flow, end, nowEmpty)
}

func (e *Engine) stall(flow int) int {
	if e.cfg.Stall == nil {
		return 0
	}
	var s int
	if cs, ok := e.cfg.Stall.(CycleStallModel); ok {
		s = cs.FlitStallAt(flow, e.cycle)
	} else {
		s = e.cfg.Stall.FlitStall(flow)
	}
	if s < 0 {
		panic("engine: negative stall")
	}
	return s
}

func (e *Engine) idle() {
	if e.cfg.OnIdle != nil {
		e.cfg.OnIdle(e.cycle)
	}
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n int64) {
	for i := int64(0); i < n; i++ {
		e.Step()
	}
}

// RunUntilDrained steps until no packet remains in any queue or in
// service, or until maxCycles elapse; it returns the number of cycles
// stepped and whether the system drained.
func (e *Engine) RunUntilDrained(maxCycles int64) (cycles int64, drained bool) {
	for cycles = 0; cycles < maxCycles; cycles++ {
		if e.Backlog() == 0 {
			return cycles, true
		}
		e.Step()
	}
	return cycles, e.Backlog() == 0
}
