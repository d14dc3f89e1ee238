// Package sched defines the scheduling framework the reproduction is
// built around, plus the baseline disciplines the paper compares
// against: FCFS, PBRR, WRR, IWRR, DRR, SCFQ, STFQ, WFQ (with exact
// GPS virtual time) and VirtualClock, all packet-granularity, and
// FBRR (flit-granularity). The four timestamp disciplines share one
// packetized tag server and differ only in how they stamp an arrival.
// The paper's own contribution, Elastic Round Robin, lives in package
// core and implements the same Scheduler interface.
//
// # The central constraint
//
// In a wormhole network the time a packet occupies an output queue is
// governed by downstream congestion, not by the packet's length, and
// the length itself may be unknown until the tail flit passes (packet
// delimiters only, no length field). A scheduling discipline usable in
// a wormhole switch therefore must decide *which flow to serve next*
// without knowing how much service the decision will consume.
//
// The Scheduler interface encodes that constraint in the type system:
// a Scheduler learns a packet's cost only through OnPacketDone, after
// the packet has been fully dequeued. Disciplines that fundamentally
// require a-priori lengths (DRR, the timestamp schedulers) must also
// implement LengthAware to receive lengths at arrival time — and the
// engine refuses to run LengthAware schedulers in wormhole occupancy
// mode, mirroring the paper's argument that DRR "is not suitable for
// wormhole networks".
package sched

// Scheduler selects which flow's head packet is dequeued next.
//
// The driving engine owns the per-flow FIFO queues and calls:
//
//   - OnArrival when a packet is appended to a flow's queue,
//   - NextFlow when the server is idle and at least one packet is
//     queued anywhere (the returned flow must have a queued packet),
//   - OnPacketDone when the dequeue completes, reporting the packet's
//     measured cost: its length in flits, or — in wormhole occupancy
//     mode — the number of cycles it occupied the output, which can
//     exceed its length because of downstream stalls.
//
// Implementations are not safe for concurrent use; the engine drives
// them from a single goroutine, which matches the hardware reality of
// one arbiter per output port.
type Scheduler interface {
	// Name returns a short identifier used in experiment output
	// ("ERR", "DRR", "FCFS", ...).
	Name() string

	// OnArrival notifies the scheduler that a packet has been
	// appended to flow's queue. wasEmpty reports whether the queue
	// was empty immediately before the arrival (i.e. the flow may
	// have just become active).
	OnArrival(flow int, wasEmpty bool)

	// NextFlow returns the flow whose head packet the server should
	// dequeue next. The engine guarantees at least one flow has a
	// queued packet, and that the returned flow has one.
	NextFlow() int

	// OnPacketDone reports that the packet most recently selected
	// from flow has been fully dequeued at the given cost, and
	// whether the flow's queue is now empty. cost is the first (and
	// only) size information a non-LengthAware discipline receives.
	OnPacketDone(flow int, cost int64, nowEmpty bool)
}

// LengthAware is implemented by disciplines that require packet
// lengths before dequeuing (DRR's deficit test, the tags of SCFQ,
// STFQ, WFQ and VirtualClock: STFQ queues start tags, the others
// finish tags, and every one needs the length for the finish tag).
// The engine calls OnArrivalLength right after OnArrival. Schedulers
// that can run in wormhole switches — ERR, PBRR, WRR, IWRR, FCFS —
// deliberately do not implement this interface.
type LengthAware interface {
	Scheduler
	// OnArrivalLength supplies the length in flits of the packet
	// just reported via OnArrival.
	OnArrivalLength(flow int, length int)
}

// HeadOfLineArb marks disciplines that can arbitrate a wormhole
// router output, where flows are (input port, VC) pairs whose head
// packet is exposed one at a time. The contract beyond Scheduler:
//
//  1. the discipline must not be LengthAware (the router cannot know
//     a packet's occupancy in advance), and
//  2. when OnPacketDone reports nowEmpty == false, the discipline
//     must reschedule the flow by itself — the router will not send
//     a fresh OnArrival for the already-exposed next packet.
//
// The round-robin family (ERR, PBRR, WRR, IWRR) satisfies both.
// FCFS meets (1) but fails (2): it needs one OnArrival per packet.
// DRR and the timestamp disciplines fail (1).
type HeadOfLineArb interface {
	Scheduler
	// HeadOfLineSafe is a marker method asserting the contract above.
	HeadOfLineSafe()
}

// ClockAware is implemented by disciplines whose tags reference real
// time: VirtualClock clamps its tags to it, and WFQ advances its GPS
// virtual time by it. The engine calls SetNow at the start of every
// cycle before delivering arrivals.
type ClockAware interface {
	// SetNow tells the scheduler the current simulation cycle.
	SetNow(cycle int64)
}

// FlitScheduler selects a flow per flit rather than per packet. Only
// valid where every flit carries a flow tag — e.g. scheduling flits
// from virtual-channel output queues onto a link (FBRR). The engine
// interleaves flits of different flows' packets under a
// FlitScheduler.
type FlitScheduler interface {
	// Name returns a short identifier used in experiment output.
	Name() string

	// OnArrival notifies of a packet arrival at flow; wasEmpty
	// reports whether the flow had no queued flits before it.
	OnArrival(flow int, wasEmpty bool)

	// NextFlow returns the flow whose next flit to forward. The
	// engine guarantees at least one flow has queued flits.
	NextFlow() int

	// OnFlitDone reports one flit forwarded from flow; endOfPacket
	// marks a tail flit, nowEmpty that the flow has no flits left.
	OnFlitDone(flow int, endOfPacket, nowEmpty bool)
}
