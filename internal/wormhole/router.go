// Package wormhole implements a flit-level wormhole router with
// virtual channels and credit-based flow control — the switch
// substrate the paper's scheduling problem lives in. Entry into each
// output queue (one per output port and VC) is arbitrated at packet
// granularity by a pluggable sched.Scheduler (ERR, PBRR, WRR): once a
// packet's head flit is granted an output queue, the queue stays
// allocated to that packet until its tail flit passes, and the
// arbiter is billed for the *cycles of occupancy* — which exceed the
// packet length whenever downstream congestion stalls the worm. This
// is exactly the regime in which the paper argues a scheduler must
// not require a-priori packet lengths. The physical output link is
// multiplexed flit by flit among the allocated VCs, the structure the
// paper's Section 1 describes for switches with virtual channels.
//
// Routers are wired together (or to injection/ejection endpoints)
// with Connect; package noc builds meshes and tori out of them.
package wormhole

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sched"
)

// entry is a buffered flit with its arrival cycle (a flit may not be
// forwarded in the cycle it arrived, enforcing one hop per cycle).
type entry struct {
	f       flit.Flit
	arrived int64
}

// vcFIFO is a statically partitioned flit buffer for one (input
// port, VC) pair.
type vcFIFO struct {
	buf        []entry
	head, size int
	// arr caches the arrival cycle of the head flit (valid only while
	// the VC is non-empty); notif records that the head packet has
	// been announced to its output arbiter. Both live here — not in
	// parallel portBuf arrays — so the forwarding hot loop touches one
	// cache line per VC. In shared-buffer (DAMQ) mode buf is nil and
	// only these two fields are used.
	arr   int64
	notif bool
}

func (q *vcFIFO) empty() bool { return q.size == 0 }
func (q *vcFIFO) full() bool  { return q.size == len(q.buf) }
func (q *vcFIFO) len() int    { return q.size }

func (q *vcFIFO) push(e entry) {
	if q.full() {
		panic("wormhole: push to full VC FIFO (credit protocol violated)")
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = e
	q.size++
}

func (q *vcFIFO) pop() entry {
	if q.empty() {
		panic("wormhole: pop from empty VC FIFO")
	}
	e := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return e
}

func (q *vcFIFO) peek() entry {
	if q.empty() {
		panic("wormhole: peek on empty VC FIFO")
	}
	return q.buf[q.head]
}

// Endpoint consumes flits leaving one of a router's output ports that
// ConnectEndpoint wired to something other than a router — an
// ejection sink (Sink, StallSink). Connect wires router-to-router
// links directly.
type Endpoint interface {
	// AcceptFlit delivers a flit on the given VC at the given cycle.
	AcceptFlit(f flit.Flit, vc int, cycle int64)
	// BufFlits returns the per-VC buffer capacity of the endpoint,
	// which initialises the sender's credit counters (0 = unlimited).
	BufFlits() int
}

// creditReturn is invoked by a router when a flit leaves an input
// FIFO, so the upstream sender regains a credit. The cycle is the
// commit cycle of the flit movement that freed the slot (flight-
// recorder tracers use it to close credit-starvation intervals).
type creditReturn func(vc int, cycle int64)

// OutputFault models a faulty output link for fault-injection
// campaigns (package fault implements it from a parsed spec). The
// router consults it in its forwarding phase: a stalled link forwards
// nothing (occupancy keeps accruing — the wormhole hostage effect), a
// dropped flit consumes the link cycle and the downstream credit but
// never arrives, and a corrupted flit is delivered mutated. All three
// are exactly the partial failures a production switch must survive
// without panicking; the invariant checker and the deadlock watchdog
// are what detect the resulting wedges.
type OutputFault interface {
	// Stalled returns how many cycles the link is still stalled at
	// cycle, counting cycle itself (0 = not stalled).
	Stalled(cycle int64) int64
	// Drop reports whether this flit is lost in transit.
	Drop(f flit.Flit, cycle int64) bool
	// Corrupt returns the flit as it arrives downstream (possibly
	// mutated) — called for every delivered flit.
	Corrupt(f flit.Flit, cycle int64) flit.Flit
}

// MaxVCs is the most virtual channels a port may have: the per-port
// occupancy and per-output allocation bitmasks pack VC state into
// single words.
const MaxVCs = 64

// Config configures a Router.
type Config struct {
	// Ports is the number of ports (inputs == outputs). Port 0 is by
	// convention the local (injection/ejection) port in package noc,
	// but the router itself attaches no meaning to port numbers.
	Ports int
	// VCs is the number of virtual channels per port, 1..MaxVCs.
	VCs int
	// BufFlits is the capacity of each input VC FIFO in flits — or,
	// when SharedBufFlits is set, the per-VC *reservation* inside the
	// shared buffer.
	BufFlits int
	// SharedBufFlits, when > 0, replaces the statically partitioned
	// per-VC input FIFOs with one dynamically allocated multi-queue
	// buffer (DAMQ) of this many flits per input port, with BufFlits
	// reserved per VC (the reservation keeps VC deadlock-avoidance
	// schemes sound). Links feeding a shared-buffer router use
	// stop/go gating instead of per-VC credits, since shared space
	// cannot be represented by static credit counters.
	SharedBufFlits int
	// SharedBufCap, when > 0 with SharedBufFlits, limits any single
	// VC's occupancy of the shared buffer. Without a cap a blocked
	// worm can hog the entire shared region and make sharing worse
	// than a static partition under congestion.
	SharedBufCap int
	// NewArb constructs the per-output-port packet arbiter. The flow
	// ids presented to the arbiter are inputPort*VCs + vc.
	NewArb func() sched.Scheduler
	// Route maps a destination node id to an output port of router id
	// (the id the router was built with), so one function can route
	// every router of a network. It is called once per head flit the
	// router receives.
	Route func(id, dst int) int
	// OutVC, if set, maps the VC a packet uses on its next hop given
	// the output port, the head flit, and the input port/VC it
	// occupies in this router. All flits of the packet use the VC
	// computed once at grant time. nil means the VC is preserved
	// hop to hop. Package noc uses this for torus dateline VC
	// switching, which breaks the ring channel-dependency cycle.
	OutVC func(outPort int, head flit.Flit, inPort, inVC int) int
}

// lock is the state of an output port owned by an in-flight packet.
// Occupancy is not accrued eagerly: since records the grant cycle,
// and the occupancy billed to the arbiter is cycle-since at the
// moment the tail flit forwards. The two are identical — the eager
// counter was incremented exactly once per elapsed cycle, frozen or
// not — but the lazy form costs nothing per cycle, which is what
// lets the router skip allocated-but-blocked outputs entirely.
type lock struct {
	active bool
	// traced marks a lock the installed Tracer elected to follow at
	// grant time; all per-visit tracer calls are gated on it, so
	// unsampled packets cost the forwarding loop nothing.
	traced   bool
	port, vc int // input port and VC the packet occupies
	outVC    int // VC the packet uses on the output link
	flow     int
	since    int64 // cycle the output queue was granted
}

// outHot packs the per-output state the forwarding hot loop touches
// every cycle into one small record (see Router.outs).
type outHot struct {
	lockCount int32
	linkRR    int32
	lockVCs   uint64
	flags     uint8
}

// outHot.flags bits: set when a slow-path feature is installed on the
// output, so the forwarding loop skips the outFault/gateOut loads
// otherwise.
const (
	outHasFault = 1 << iota
	outHasGate
)

// Router is one wormhole switch node.
//
// Arbitration follows the paper's two-level switch structure: entry
// into each *output queue* — one per (output port, VC) — is allocated
// at packet granularity by a sched.Scheduler, while the physical
// output link is multiplexed flit by flit among the VCs that hold an
// allocation (round-robin, i.e. FBRR across VCs, which the paper
// notes is legitimate because every flit is tagged with its VC). A
// packet blocked on one VC therefore never prevents another VC's
// packet from advancing through the same port — the property the
// torus dateline scheme needs for deadlock freedom.
type Router struct {
	cfg    Config
	id     int
	domain int               // commit domain (SetDomain); 0 by default
	in     []portBuf         // one input buffer complex per port
	arbs   []sched.Scheduler // arbiter of cell o*VCs+v
	locks  []lock            // allocation of cell o*VCs+v
	out    []Endpoint        // endpoint (sink) links; router links are in outR
	crd    []int             // downstream credits of cell o*VCs+v
	// credUp[p] is the credit return of an input port no link feeds
	// (SetCreditReturn).
	credUp []creditReturn
	// outR/outPort name the router input each router-to-router link
	// delivers to (nil/0 for endpoint links), and credUpR/credUpPort
	// the router output feeding each linked input: the serial commit
	// phase calls the neighbour router directly instead of through an
	// interface or closure, which the hot path pays for every delivered
	// flit and returned credit.
	outR       []*Router
	outPort    []int
	credUpR    []*Router
	credUpPort []int
	// gateOut[o], when non-nil, is the shared (DAMQ) input buffer at
	// the far end of output o: its free space gates the link stop/go
	// instead of credits.
	gateOut []*portBuf

	// eligible[o*VCs+v] counts flows currently registered with that
	// cell's arbiter.
	eligible []int
	// usedInput is scratch: which input ports moved a flit this cycle.
	usedInput []bool

	// outFault[o], when non-nil, injects faults on output link o.
	outFault []OutputFault
	// frozen, when non-nil, returns how many cycles the whole router
	// is still frozen at a cycle (fault injection: a crashed/wedged
	// switch ASIC).
	frozen func(cycle int64) int64
	// FaultDropped counts flits lost on this router's faulty output
	// links (the dropped-by-fault term of flit conservation).
	FaultDropped int64

	// work counts buffered flits plus active output allocations — the
	// router's content measure. work == 0 means the router is empty.
	// Eligible announcements need no separate term: eligible > 0
	// implies a buffered head flit, already counted.
	work int
	// onActive, when non-nil, fires whenever an externally applied
	// event (flit arrival, credit return) leaves the router Runnable.
	// The mesh uses it to re-register the router on its active set.
	// It never fires from inside Compute, which keeps the sharded
	// compute phase free of cross-router writes.
	onActive func()
	// activeHint records that onActive already fired and the owner has
	// not yet pruned this router, so the (idempotent) hook and the
	// Runnable probe are skipped on the many arrivals a busy router
	// sees per cycle. ClearActiveHint re-arms it.
	activeHint bool

	// The event-driven work-lists. pendingOut holds the output ports
	// whose allocated packets may be able to forward a flit; grantable
	// holds the cells o*VCs+v with an idle output queue and at least
	// one eligible flow (invariant: bit set <=> !locks[o][v].active &&
	// eligible[o][v] > 0). A cell leaves pendingOut only when every
	// allocated VC on the output is hard-blocked — input FIFO empty or
	// downstream credits exhausted — conditions that can only change
	// through an instrumented event (acceptFlit, creditArrived,
	// grantCell). Soft blocks (link contention via usedInput, a flit
	// that arrived this cycle, a stop/go gate, an installed output
	// fault) keep the output pending conservatively.
	pendingOut queue.Bitset
	grantable  queue.Bitset
	// outs[o] packs the per-output state the forwarding loop touches
	// every cycle: the count and VC bitmask of active locks (so an
	// idle output quiesces without touching its VCs and the link
	// multiplexer walks only allocated VCs), the multiplexer's
	// round-robin pointer, and the fault/gate presence flags that
	// spare the common case the outFault/gateOut loads.
	outs []outHot
	// inLockOut maps port*VCs+vc to the output whose active lock
	// drains that input VC (-1 when none), so a flit arriving into an
	// empty locked FIFO re-enqueues the right output.
	inLockOut []int32
	// inTraced mirrors lock.traced per input (port, VC): set at grant
	// for the lock draining that input, cleared at release. It lets
	// the commit-phase paths that know only the input (flit arrival
	// into an empty locked FIFO) skip the tracer call for unsampled
	// worms without chasing the lock cell.
	inTraced []bool
	// usedList records which usedInput entries were set this cycle, so
	// the reset is proportional to forwards, not ports.
	usedList []int
	// fullScan, when set, makes Compute run the original full
	// ports-x-VCs scans (maintaining the same work-list state) — the
	// oracle the differential tests compare work-list stepping against.
	fullScan bool
	// cellsVisited counts arbitration sites inspected by Compute (obs
	// telemetry: the work the work-lists save is visible as the gap
	// between this and ports*VCs*cycles).
	cellsVisited int64

	// tr, when non-nil, observes packet lifecycle events for the
	// flight recorder (see Tracer). Calls on the per-visit paths are
	// gated on lock.traced so unsampled traffic pays one nil-check.
	tr Tracer

	// scratch is Step's private effect buffer, reused across cycles.
	scratch Effects
	// gateSnap caches gateOut answers as of the start of gateSnapCycle
	// (see SnapshotGates); hasGates is set when any output uses
	// stop/go gating.
	gateSnap      [][]bool
	gateSnapCycle int64
	hasGates      bool
}

// NewRouter validates cfg and returns a router with all outputs
// unconnected (connect them with Connect / ConnectSink before
// stepping). It is a single-router arena carve; batch builders
// (package noc's meshes) construct one Arena for the whole batch so
// consecutively built routers are contiguous in memory.
func NewRouter(id int, cfg Config) (*Router, error) {
	return NewArena(cfg, 1).NewRouter(id, cfg)
}

// ID returns the router's node id.
func (r *Router) ID() int { return r.id }

// Ports returns the router's radix (Config.Ports).
func (r *Router) Ports() int { return r.cfg.Ports }

// SetDomain assigns the router to a commit domain. Package noc uses
// contiguous 2D tiles as domains: during the commit phase each tile
// owner applies its routers' domain-interior effects concurrently via
// Effects.ApplyDomain, deferring everything that crosses a domain
// boundary to the serial commit. The default domain is 0.
func (r *Router) SetDomain(d int) { r.domain = d }

// Connect wires output port po of a to input port pi of b, setting up
// the flow control: per-VC credits for statically partitioned inputs,
// stop/go gating for shared-buffer (DAMQ) inputs.
func Connect(a *Router, po int, b *Router, pi int) {
	a.out[po] = nil
	a.outR[po] = b
	a.outPort[po] = pi
	if b.cfg.SharedBufFlits > 0 {
		a.gateOut[po] = &b.in[pi]
		a.outs[po].flags |= outHasGate
		a.hasGates = true
		return
	}
	for v := 0; v < a.cfg.VCs; v++ {
		a.crd[po*a.cfg.VCs+v] = b.cfg.BufFlits
	}
	b.credUpR[pi] = a
	b.credUpPort[pi] = po
}

// SetCreditReturn installs fn as the credit return of input port pi
// when no link feeds it: fn(vc, cycle) runs for every flit that leaves
// the port, as a deferred effect (Effects.Apply, or the rest buffer of
// Effects.ApplyDomain), just as a linked upstream router regains a
// credit. Package noc uses it to wake an injection front end whose
// flit the port refused. nil removes it.
func (r *Router) SetCreditReturn(pi int, fn func(vc int, cycle int64)) { r.credUp[pi] = fn }

// creditArrived restores one downstream credit on output o, VC v. A
// lock waiting on that credit becomes forwardable, so the output
// rejoins the pending work-list. Credits are returned during the
// serial commit phase (Effects.Apply), never during Compute, so the
// onActive hook may safely touch the mesh's active set.
func (r *Router) creditArrived(o, v int, cycle int64) {
	r.crd[o*r.cfg.VCs+v]++
	if r.outs[o].lockVCs&(1<<uint(v)) != 0 {
		if l := &r.locks[o*r.cfg.VCs+v]; l.traced {
			// A traced lock waiting on this credit: close its
			// credit-starvation interval (a no-op if none is open).
			r.tr.Unblocked(l.port, l.vc, BlockNoCredit, cycle)
		}
		r.pendingOut.Set(o)
		if r.onActive != nil && !r.activeHint {
			r.activeHint = true
			r.onActive()
		}
	}
}

// ConnectEndpoint wires output port po of a to an arbitrary endpoint
// (typically a Sink). Credits are initialised from the endpoint's
// BufFlits (0 = unlimited).
func ConnectEndpoint(a *Router, po int, e Endpoint) {
	a.out[po] = e
	a.outR[po] = nil
	buf := e.BufFlits()
	for v := 0; v < a.cfg.VCs; v++ {
		if buf == 0 {
			a.crd[po*a.cfg.VCs+v] = int(^uint(0) >> 1) // effectively unlimited
		} else {
			a.crd[po*a.cfg.VCs+v] = buf
		}
	}
}

// acceptFlit buffers an incoming flit and, if it exposes a new head
// packet, announces it to the arbiter of its output. Arrivals happen
// outside Compute (injection, or the serial Effects.Apply commit), so
// this is where a quiescent router re-enters the work-lists: a flit
// landing in an empty locked VC re-enqueues the lock's output (the
// worm was starved on input), and an unannounced head flit makes its
// target cell grantable via announce. Either way the onActive hook
// fires if the router is now Runnable.
func (r *Router) acceptFlit(port int, f flit.Flit, vc int, cycle int64) {
	pb := &r.in[port]
	wasEmpty := pb.empty(vc)
	pb.push(vc, f, cycle)
	r.work++
	if f.Traced && r.tr != nil && (f.Kind == flit.Head || f.Kind == flit.HeadTail) {
		r.tr.HeadArrived(port, vc, f, cycle)
	}
	if wasEmpty {
		if o := r.inLockOut[port*r.cfg.VCs+vc]; o >= 0 {
			// The arriving flit continues the worm holding output o: a
			// lock releases only after its tail passed, and FIFO order
			// means no new head can arrive before that tail.
			if r.inTraced[port*r.cfg.VCs+vc] {
				// The worm was starved on input; close any open
				// input-empty interval on its traced lock.
				r.tr.Unblocked(port, vc, BlockInputEmpty, cycle)
			}
			r.pendingOut.Set(int(o))
		} else {
			r.announceHead(port, vc, f, cycle)
		}
	}
	if r.onActive != nil && !r.activeHint && r.Runnable() {
		r.activeHint = true
		r.onActive()
	}
}

// Inject offers a flit to input port/vc directly (used by injection
// endpoints and tests). It reports whether buffer space was
// available.
func (r *Router) Inject(port, vc int, f flit.Flit, cycle int64) bool {
	if !r.in[port].canAccept(vc) {
		return false
	}
	r.acceptFlit(port, f, vc, cycle)
	return true
}

// InputFree returns the flit slots an input VC could accept right
// now (for shared buffers this includes the free shared region).
func (r *Router) InputFree(port, vc int) int {
	pb := &r.in[port]
	if pb.dyn != nil {
		return pb.dyn.SpaceFor(vc)
	}
	return len(pb.fifos[vc].buf) - pb.fifos[vc].size
}

// headTarget returns the (output port, output VC) the head flit of
// (port, vc) is routed to.
func (r *Router) headTarget(port, vc int, h flit.Flit) (o, ov int) {
	o = r.cfg.Route(r.id, h.Dst)
	ov = vc
	if r.cfg.OutVC != nil {
		ov = r.cfg.OutVC(o, h, port, vc)
		if ov < 0 || ov >= r.cfg.VCs {
			panic("wormhole: OutVC returned a VC out of range")
		}
	}
	return o, ov
}

// announce registers the packet at the head of (port, vc) with the
// arbiter of its routed output queue, if it is an unannounced head
// flit.
func (r *Router) announce(port, vc int, cycle int64) {
	pb := &r.in[port]
	if pb.fifos[vc].notif || pb.empty(vc) {
		return
	}
	r.announceHead(port, vc, pb.peek(vc).f, cycle)
}

// announceHead is announce when the caller already holds the head
// flit of (port, vc) — acceptFlit passes the flit it just pushed into
// an empty FIFO, skipping the peek the generic path pays.
func (r *Router) announceHead(port, vc int, h flit.Flit, cycle int64) {
	if h.Kind != flit.Head && h.Kind != flit.HeadTail {
		// Mid-packet flit: the packet was announced when its head
		// arrived (or is currently locked); nothing to do.
		return
	}
	pb := &r.in[port]
	if pb.fifos[vc].notif {
		return
	}
	o, ov := r.headTarget(port, vc, h)
	flow := port*r.cfg.VCs + vc
	cell := o*r.cfg.VCs + ov
	r.arbs[cell].OnArrival(flow, true)
	r.eligible[cell]++
	pb.fifos[vc].notif = true
	if h.Traced && r.tr != nil {
		r.tr.HeadEligible(port, vc, h.PktID, cycle)
	}
	if !r.locks[cell].active {
		r.grantable.Set(cell)
	}
}

// ClearActiveHint re-arms the onActive hook (see SetOnActive): the
// owner calls it when it drops the router from its active set, so the
// next activating event fires the hook again.
func (r *Router) ClearActiveHint() { r.activeHint = false }

// SetOutputFault installs (or, with nil, removes) a fault injector on
// output link port.
func (r *Router) SetOutputFault(port int, f OutputFault) {
	r.outFault[port] = f
	if f != nil {
		r.outs[port].flags |= outHasFault
	} else {
		r.outs[port].flags &^= outHasFault
	}
}

// SetFreeze installs a freeze hook, which returns how many cycles the
// router is still frozen at a cycle, counting that cycle (0 = not
// frozen). While frozen the router does nothing — no forwarding, no
// grants — while its input buffers keep accepting flits until credits
// exhaust, which is exactly how a wedged switch back-pressures its
// neighbours. nil removes the hook.
func (r *Router) SetFreeze(f func(cycle int64) int64) { r.frozen = f }

// SetOnActive installs a hook fired when an external event (flit
// arrival, credit return) leaves a router Runnable. The mesh uses it
// to maintain its active set. nil removes the hook.
func (r *Router) SetOnActive(fn func()) { r.onActive = fn }

// Runnable reports whether stepping the router could change any
// state: some output may be able to forward a flit, or some idle
// output queue has an eligible flow to grant. A router with
// Runnable() == false steps as a strict no-op — even when it still
// holds hard-blocked worms, every one of them waits on an external
// event (a flit arrival or a credit return) that re-enters it on the
// work-lists and fires the onActive hook — so a caller may skip it
// without changing any observable state.
func (r *Router) Runnable() bool { return r.pendingOut.Any() || r.grantable.Any() }

// EventNever is NextEventAt's answer for a router that cannot change
// state until an external stimulus (a flit arrival or a credit return)
// wakes it.
const EventNever = math.MaxInt64

// NextEventAt reports the earliest cycle >= now at which stepping
// this router could change simulation state:
//
//   - EventNever when it is not Runnable: every worm is hard-blocked,
//     and acceptFlit or creditArrived re-enters it on the work-lists
//     and fires onActive;
//   - now+k when its freeze hook blocks it for k cycles: Compute is a
//     no-op until then;
//   - the earliest end among its pending outputs' stalls when every
//     pending output is stalled and nothing is grantable: tryForward
//     returns before mutating anything until then;
//   - now otherwise.
//
// A fault window that opens later needs no wake: it only blocks more,
// and a blocked router is asked again when its block ends. Skipping
// the cycles before the answer is byte-identical to stepping them
// except for the visit telemetry (cellsVisited) the skipped polls
// would have accrued.
func (r *Router) NextEventAt(now int64) int64 {
	if !r.Runnable() {
		return EventNever
	}
	if r.frozen != nil {
		if k := r.frozen(now); k > 0 {
			return after(now, k)
		}
	}
	if r.grantable.Any() {
		return now
	}
	// Runnable through pendingOut alone. A pending output without
	// locks is actable (stepping clears the stale bit), as is any
	// unfaulted or unstalled one.
	next := int64(EventNever)
	pw := r.pendingOut.Words()
	for wi, w := range pw {
		for w != 0 {
			o := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f := r.outFault[o]
			if r.outs[o].lockCount == 0 || f == nil {
				return now
			}
			k := f.Stalled(now)
			if k == 0 {
				return now
			}
			next = min(next, after(now, k))
		}
	}
	return next
}

// after returns now+k, saturating at EventNever.
func after(now, k int64) int64 {
	if k > EventNever-now {
		return EventNever
	}
	return now + k
}

// CanAccept reports whether input (port, vc) could accept a flit
// right now — Inject's admission test without the injection. Owners
// use it to decide whether an injection front end blocked on a
// dormant router can make progress.
func (r *Router) CanAccept(port, vc int) bool { return r.in[port].canAccept(vc) }

// SetFullScan, when on, makes Compute use the original full
// ports-x-VCs scans instead of the work-lists, while maintaining the
// identical work-list state. It is the oracle mode the differential
// tests compare against: both modes must produce byte-identical
// artifacts and identical Runnable() trajectories.
func (r *Router) SetFullScan(on bool) { r.fullScan = on }

// TakeCellsVisited returns and resets the count of arbitration sites
// Compute inspected since the last call (obs telemetry).
func (r *Router) TakeCellsVisited() int64 {
	n := r.cellsVisited
	r.cellsVisited = 0
	return n
}

// WorklistLen returns the current pending work-list population:
// outputs with possibly-forwardable packets plus grantable cells.
func (r *Router) WorklistLen() int { return r.pendingOut.Count() + r.grantable.Count() }

// Effects buffers the cross-router side effects of one Compute call:
// flit deliveries to downstream endpoints and credit returns to
// upstream senders. Everything Compute writes directly is state owned
// by the computing router; everything that would touch a neighbour
// lands here, to be committed by Apply. That split is what makes
// sharded mesh stepping deterministic: computes run concurrently over
// frozen cycle-start state, then the mesh applies each router's
// Effects serially in fixed router-ID order.
type Effects struct {
	deliveries []delivery
	credits    []creditFx
}

// delivery records one flit to hand downstream. For router-to-router
// links r/port name the receiver directly; ep is the generic fallback
// for sinks and custom endpoints.
type delivery struct {
	r     *Router
	ep    Endpoint
	f     flit.Flit
	port  int
	vc    int
	cycle int64
}

// creditFx records one credit to return upstream; r/o name the
// upstream router directly, ret is the closure a port without a link
// returns its credits to (SetCreditReturn).
type creditFx struct {
	r     *Router
	ret   creditReturn
	o     int
	vc    int
	cycle int64
}

// Reset empties the buffer for reuse, retaining capacity.
func (fx *Effects) Reset() {
	fx.deliveries = fx.deliveries[:0]
	fx.credits = fx.credits[:0]
}

// Apply commits the buffered effects: deliveries in recorded
// (output-port) order, then credit returns. The two classes commute —
// deliveries touch downstream input buffers and arbiters, credits
// touch upstream credit counters — so this fixed order is equivalent
// to the interleaved order the serial router used, for any wiring
// without self-loops.
func (fx *Effects) Apply() {
	for i := range fx.deliveries {
		d := &fx.deliveries[i]
		if d.r != nil {
			d.r.acceptFlit(d.port, d.f, d.vc, d.cycle)
		} else {
			d.ep.AcceptFlit(d.f, d.vc, d.cycle)
		}
	}
	for i := range fx.credits {
		c := &fx.credits[i]
		if c.r != nil {
			c.r.creditArrived(c.o, c.vc, c.cycle)
		} else {
			c.ret(c.vc, c.cycle)
		}
	}
}

// ApplyDomain commits the subset of the buffered effects whose target
// is a router in domain dom — deliveries then credits, Apply's class
// order — and appends every other effect (cross-domain handoffs, sink
// deliveries, closure-bound credits) to rest in recorded order. A
// caller that owns every router of dom may run ApplyDomain
// concurrently with other domains' computes and interior commits: the
// applied subset mutates only dom's routers, and the deferred rest
// buffer is the caller's own. The rest buffers must afterwards be
// applied serially in a fixed domain order — that is the entire
// worker-count-independent schedule.
func (fx *Effects) ApplyDomain(dom int, rest *Effects) {
	for i := range fx.deliveries {
		d := &fx.deliveries[i]
		if d.r != nil && d.r.domain == dom {
			d.r.acceptFlit(d.port, d.f, d.vc, d.cycle)
		} else {
			rest.deliveries = append(rest.deliveries, *d)
		}
	}
	for i := range fx.credits {
		c := &fx.credits[i]
		if c.r != nil && c.r.domain == dom {
			c.r.creditArrived(c.o, c.vc, c.cycle)
		} else {
			rest.credits = append(rest.credits, *c)
		}
	}
}

// CrossRouter returns how many buffered effects target a router (as
// opposed to a sink or closure-bound endpoint). On a rest buffer
// filled by ApplyDomain this counts exactly the domain-crossing
// effects — the mesh's noc.cross_shard_effects telemetry.
func (fx *Effects) CrossRouter() int {
	n := 0
	for i := range fx.deliveries {
		if fx.deliveries[i].r != nil {
			n++
		}
	}
	for i := range fx.credits {
		if fx.credits[i].r != nil {
			n++
		}
	}
	return n
}

// Len returns the number of buffered effects.
func (fx *Effects) Len() int { return len(fx.deliveries) + len(fx.credits) }

// SnapshotGates caches the stop/go gate state of every shared-buffer
// output link as of the start of the given cycle. Gate closures read
// *downstream* buffer occupancy, so under two-phase stepping they
// must be sampled before any router's Compute pops flits — both for
// determinism (all routers see cycle-start space) and to keep the
// concurrent compute phase free of cross-router reads. The snapshot
// cannot over-admit: one link delivers at most one flit per cycle
// into the port the gate guards, and the downstream router only
// frees space during the cycle, never consumes it.
//
// A no-op on routers without shared-buffer links. Compute falls back
// to live gate queries when no snapshot was taken for its cycle, so
// standalone Router.Step users need never call this.
func (r *Router) SnapshotGates(cycle int64) {
	if !r.hasGates {
		return
	}
	if r.gateSnap == nil {
		r.gateSnap = make([][]bool, len(r.gateOut))
		for o, g := range r.gateOut {
			if g != nil {
				r.gateSnap[o] = make([]bool, r.cfg.VCs)
			}
		}
	}
	for o, g := range r.gateOut {
		if g == nil {
			continue
		}
		for v := 0; v < r.cfg.VCs; v++ {
			r.gateSnap[o][v] = g.canAccept(v)
		}
	}
	r.gateSnapCycle = cycle
}

// gateAllows answers "may output o push a flit on VC v this cycle?"
// from the cycle-start snapshot when one exists, else live.
func (r *Router) gateAllows(o, v int, cycle int64) bool {
	if r.gateSnapCycle == cycle {
		return r.gateSnap[o][v]
	}
	return r.gateOut[o].canAccept(v)
}

// Step advances the router by one cycle: forward at most one flit per
// output link (multiplexed round-robin among the VCs holding an
// allocation), then grant idle output queues. Step is Compute with
// the effects applied immediately; for a router stepped on its own
// the result is identical to interleaved application, since its own
// compute never reads the neighbour state its effects mutate.
func (r *Router) Step(cycle int64) {
	r.scratch.Reset()
	r.Compute(cycle, &r.scratch)
	r.scratch.Apply()
}

// Compute runs the router's cycle against frozen cycle-start state,
// buffering every cross-router side effect (flit handoffs, credit
// returns) into fx instead of applying it. It mutates only state
// owned by this router, so disjoint routers may Compute concurrently;
// the caller commits the effects afterwards with fx.Apply, ordering
// commits however its determinism contract requires.
func (r *Router) Compute(cycle int64, fx *Effects) {
	if r.frozen != nil && r.frozen(cycle) > 0 {
		// A frozen router does nothing, but its work-lists are left
		// intact — the cells stay enqueued and are processed on the
		// first unfrozen cycle, and occupancy on allocated outputs
		// accrues implicitly (it is billed as cycle-since at tail
		// time): a frozen router's victims pay wall-clock time, like
		// any other downstream congestion.
		return
	}
	if r.fullScan {
		r.computeScan(cycle, fx)
		return
	}
	// Phase 1: per pending output link, forward one flit from the
	// first movable allocated VC in round-robin order. Iterating the
	// set bits ascending visits the same outputs in the same order as
	// the original full scan — outputs with a clear bit are exactly
	// those the scan would have left untouched.
	pw := r.pendingOut.Words()
	for wi, w := range pw {
		for w != 0 {
			o := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if r.tryForward(o, cycle, fx) {
				pw[wi] &^= 1 << uint(o&63)
			}
		}
	}
	// Phase 2: grant idle output queues to eligible flows (transfer
	// begins next cycle). Cell index o*VCs+v iterated ascending is the
	// scan's o-major, v-minor order.
	V := r.cfg.VCs
	gw := r.grantable.Words()
	for wi, w := range gw {
		for w != 0 {
			cell := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.cellsVisited++
			r.grantCell(cell/V, cell%V, cycle)
		}
	}
	for _, p := range r.usedList {
		r.usedInput[p] = false
	}
	r.usedList = r.usedList[:0]
}

// computeScan is Compute's full-scan oracle: the original three-phase
// ports-x-VCs walk, sharing tryForward/grantCell with the work-list
// path so the two modes differ only in which cells they *visit*, not
// in what they do at a cell. It maintains the same work-list bits; in
// a correct implementation a cleared bit's tryForward re-quiesces
// (hard blocks persist until an instrumented event), so the masks —
// and hence Runnable() and the mesh's active set — evolve
// identically, and any divergence is a missing-event bug the
// differential tests surface as an artifact mismatch.
func (r *Router) computeScan(cycle int64, fx *Effects) {
	for o := 0; o < r.cfg.Ports; o++ {
		if r.tryForward(o, cycle, fx) {
			r.pendingOut.Clear(o)
		} else {
			r.pendingOut.Set(o)
		}
	}
	V := r.cfg.VCs
	for o := 0; o < r.cfg.Ports; o++ {
		for v := 0; v < V; v++ {
			r.cellsVisited++
			if r.locks[o*V+v].active || r.eligible[o*V+v] == 0 {
				continue
			}
			r.grantCell(o, v, cycle)
		}
	}
	for _, p := range r.usedList {
		r.usedInput[p] = false
	}
	r.usedList = r.usedList[:0]
}

// tryForward advances output o by at most one flit (the original
// phase-1 body for one output) and reports whether the output has
// quiesced: no allocated VC can forward until an instrumented event
// re-enqueues it. Only the two hard blocks — input FIFO empty and
// downstream credits exhausted on an ungated, unfaulted link — count
// toward quiescence; everything transient (link contention, a flit
// that arrived this cycle, stop/go gates, installed faults, or an
// actual forward) keeps the output pending.
func (r *Router) tryForward(o int, cycle int64, fx *Effects) (quiesce bool) {
	r.cellsVisited++
	oh := &r.outs[o]
	if oh.lockCount == 0 {
		return true // re-enqueued by grantCell
	}
	var fault OutputFault
	gated := false
	if oh.flags != 0 {
		fault = r.outFault[o]
		if fault != nil && fault.Stalled(cycle) > 0 {
			return false // link down: nothing traverses this output
		}
		gated = r.gateOut[o] != nil
	}
	// Quiesce only if every allocated VC turns out hard-blocked; an
	// installed fault or gate may change answers without an event, so
	// their outputs poll.
	quiesce = fault == nil && !gated
	V := r.cfg.VCs
	locks := r.locks[o*V : o*V+V]
	crd := r.crd[o*V : o*V+V]
	// Walk the allocated VCs in round-robin order starting at
	// linkRR[o]: first the set bits at or above the pointer, then the
	// wrapped-around ones below it — the same VCs, in the same order,
	// the original (linkRR+k) mod V walk visited, skipping the
	// unallocated cells it stepped over one by one.
	rr := int(oh.linkRR)
	all := oh.lockVCs
	hi := all &^ (1<<uint(rr) - 1)
	for pass := 0; pass < 2; pass++ {
		part := hi
		if pass == 1 {
			part = all ^ hi
		}
		for part != 0 {
			v := bits.TrailingZeros64(part)
			part &= part - 1
			l := &locks[v]
			r.cellsVisited++
			pb := &r.in[l.port]
			if pb.occVC&(1<<uint(l.vc)) == 0 {
				if l.traced {
					r.tr.Blocked(l.port, l.vc, BlockInputEmpty, cycle)
				}
				continue // hard: acceptFlit re-enqueues via inLockOut
			}
			if r.usedInput[l.port] {
				if l.traced {
					r.tr.Blocked(l.port, l.vc, BlockContend, cycle)
				}
				quiesce = false // transient: retry next cycle
				continue
			}
			if pb.peekArrived(l.vc) >= cycle {
				if l.traced {
					r.tr.Blocked(l.port, l.vc, BlockArrival, cycle)
				}
				quiesce = false // transient: forwardable next cycle
				continue
			}
			// Downstream space: stop/go gate on shared-buffer links,
			// per-VC credits otherwise.
			if gated {
				if !r.gateAllows(o, v, cycle) {
					if l.traced {
						r.tr.Blocked(l.port, l.vc, BlockNoSpace, cycle)
					}
					continue
				}
			} else if crd[v] <= 0 {
				if l.traced {
					r.tr.Blocked(l.port, l.vc, BlockNoCredit, cycle)
				}
				continue // hard: creditArrived re-enqueues
			}
			f := pb.popFlit(l.vc)
			r.work--
			r.usedInput[l.port] = true
			r.usedList = append(r.usedList, l.port)
			if !gated {
				crd[v]--
			}
			if ur := r.credUpR[l.port]; ur != nil {
				fx.credits = append(fx.credits, creditFx{r: ur, o: r.credUpPort[l.port], vc: l.vc, cycle: cycle})
			} else if ret := r.credUp[l.port]; ret != nil {
				fx.credits = append(fx.credits, creditFx{ret: ret, vc: l.vc, cycle: cycle})
			}
			if fault != nil && fault.Drop(f, cycle) {
				// Lost in transit: the link cycle and the downstream
				// credit are spent, but the flit never arrives. The
				// sending router's own bookkeeping is unaffected — a
				// dropped tail wedges the *downstream* packet, which
				// is the watchdog's job to catch.
				r.FaultDropped++
			} else {
				out := f
				if fault != nil {
					out = fault.Corrupt(out, cycle)
				}
				// Fill the slot in place: a composite-literal append
				// copies the ~100-byte delivery twice.
				n := len(fx.deliveries)
				if n < cap(fx.deliveries) {
					fx.deliveries = fx.deliveries[:n+1]
				} else {
					fx.deliveries = append(fx.deliveries, delivery{})
				}
				d := &fx.deliveries[n]
				d.r, d.ep, d.f, d.port, d.vc, d.cycle = r.outR[o], nil, out, r.outPort[o], v, cycle
				if d.r == nil {
					d.ep = r.out[o]
				}
			}
			if f.Kind == flit.Tail || f.Kind == flit.HeadTail {
				if l.traced {
					r.tr.Departed(l.port, l.vc, o, v, f, cycle)
				}
				r.completePacket(o, v, cycle)
			}
			oh.linkRR = int32((v + 1) % V)
			// One flit per output link per cycle: the output stays
			// pending for the next cycle's attempt — unless that tail
			// released its last lock, in which case the output is idle
			// until grantCell re-enqueues it.
			return oh.lockCount == 0
		}
	}
	return quiesce
}

// grantCell allocates idle output queue (o, v) to the arbiter's next
// eligible flow (the original phase-2 body for one cell). The new
// lock's first forward attempt is next cycle, so the output joins the
// pending work-list.
func (r *Router) grantCell(o, v int, cycle int64) {
	if r.out[o] == nil && r.outR[o] == nil {
		panic(fmt.Sprintf("wormhole: router %d output %d unconnected", r.id, o))
	}
	V := r.cfg.VCs
	cell := o*V + v
	flow := r.arbs[cell].NextFlow()
	r.eligible[cell]--
	port, vc := flow/V, flow%V
	if r.in[port].empty(vc) {
		panic("wormhole: arbiter granted a flow with no buffered head flit")
	}
	r.locks[cell] = lock{active: true, port: port, vc: vc, outVC: v, flow: flow, since: cycle}
	if r.tr != nil {
		if h := r.in[port].peek(vc).f; h.Traced {
			r.locks[cell].traced = r.tr.Granted(port, vc, o, v, h.PktID, cycle)
			r.inTraced[port*V+vc] = r.locks[cell].traced
		}
	}
	r.outs[o].lockCount++
	r.outs[o].lockVCs |= 1 << uint(v)
	r.inLockOut[port*V+vc] = int32(o)
	r.work++
	r.grantable.Clear(cell)
	r.pendingOut.Set(o)
}

// completePacket releases output queue (o, v) after its packet's tail
// flit passed, bills the arbiter with the occupancy (cycle-since: one
// per cycle the queue was held, exactly what the eager per-cycle
// counter accrued), and announces any next packet now at the head of
// the same input VC FIFO.
func (r *Router) completePacket(o, v int, cycle int64) {
	cell := o*r.cfg.VCs + v
	l := &r.locks[cell]
	port, vc, flow, occ := l.port, l.vc, l.flow, cycle-l.since
	r.locks[cell] = lock{}
	r.outs[o].lockCount--
	r.outs[o].lockVCs &^= 1 << uint(v)
	r.inLockOut[port*r.cfg.VCs+vc] = -1
	r.inTraced[port*r.cfg.VCs+vc] = false
	r.work--
	pb := &r.in[port]
	pb.fifos[vc].notif = false
	// Is the next head packet (if already buffered) routed to the same
	// output queue? Then the flow stays active from the arbiter's
	// viewpoint.
	nowEmpty := true
	if !pb.empty(vc) {
		h := pb.peek(vc).f
		if h.Kind == flit.Head || h.Kind == flit.HeadTail {
			if o2, ov2 := r.headTarget(port, vc, h); o2 == o && ov2 == v {
				nowEmpty = false
				pb.fifos[vc].notif = true
				if h.Traced && r.tr != nil {
					// Re-announced in place: the next head competes
					// for the same output queue from this cycle on.
					r.tr.HeadEligible(port, vc, h.PktID, cycle)
				}
			}
		}
	}
	r.arbs[cell].OnPacketDone(flow, occ, nowEmpty)
	if !nowEmpty {
		r.eligible[cell]++
	} else {
		// The next packet (if any, and once its head flit is here) may
		// target a different output queue.
		r.announce(port, vc, cycle)
	}
	// The queue just went idle; if any flow is (still, or newly via
	// announce) eligible for it, the cell is grantable this cycle.
	if r.eligible[cell] > 0 {
		r.grantable.Set(cell)
	}
}

// Sink is an ejection endpoint: it accepts every flit and reports
// packet departures (tail flits). Its buffer is unlimited, modelling
// an end system that always drains its network interface.
type Sink struct {
	// OnFlit, if set, observes every ejected flit.
	OnFlit func(f flit.Flit, vc int, cycle int64)
	// OnTail, if set, observes packet completions (tail or head+tail
	// flits).
	OnTail func(f flit.Flit, cycle int64)
	// Flits counts ejected flits, Packets completed packets.
	Flits, Packets int64
}

// AcceptFlit implements Endpoint.
func (s *Sink) AcceptFlit(f flit.Flit, vc int, cycle int64) {
	s.Flits++
	if s.OnFlit != nil {
		s.OnFlit(f, vc, cycle)
	}
	if f.Kind == flit.Tail || f.Kind == flit.HeadTail {
		s.Packets++
		if s.OnTail != nil {
			s.OnTail(f, cycle)
		}
	}
}

// BufFlits implements Endpoint (0 = unlimited).
func (s *Sink) BufFlits() int { return 0 }

// StallSink is an ejection endpoint with a bounded buffer that drains
// at a configurable pattern, creating downstream congestion on
// demand: Drain is consulted each cycle; when it returns true one
// buffered flit leaves, in arrival order across VCs. Use Step to
// advance it. Like a router input, it buffers Capacity flits per VC:
// that is the credit count ConnectEndpoint grants each VC.
type StallSink struct {
	Capacity int
	Drain    func(cycle int64) bool
	Inner    Sink
	buffered queue.Ring[sunkFlit]
	credUp   creditReturn
	perVC    []int
}

// sunkFlit is a flit a StallSink holds, with the VC it arrived on.
type sunkFlit struct {
	f  flit.Flit
	vc int
}

// NewStallSink returns a stall sink with the given buffer capacity.
func NewStallSink(capacity int, drain func(cycle int64) bool) *StallSink {
	if capacity < 1 {
		panic("wormhole: StallSink capacity < 1")
	}
	return &StallSink{Capacity: capacity, Drain: drain}
}

// AcceptFlit implements Endpoint.
func (s *StallSink) AcceptFlit(f flit.Flit, vc int, cycle int64) {
	for vc >= len(s.perVC) {
		s.perVC = append(s.perVC, 0)
	}
	if s.perVC[vc] >= s.Capacity {
		panic("wormhole: StallSink overflow (credit protocol violated)")
	}
	s.perVC[vc]++
	s.buffered.Push(sunkFlit{f, vc})
}

// BufFlits implements Endpoint.
func (s *StallSink) BufFlits() int { return s.Capacity }

// Bind attaches the sink to the router output feeding it so drained
// flits return credits, and sizes its buffer for every VC of that
// output. Call after ConnectEndpoint.
func (s *StallSink) Bind(r *Router, po int) {
	s.credUp = func(vc int, cycle int64) { r.creditArrived(po, vc, cycle) }
	s.buffered.Reserve(s.Capacity * r.cfg.VCs)
}

// Len returns the number of flits the sink holds. Step consults the
// drain pattern only while it holds some.
func (s *StallSink) Len() int { return s.buffered.Len() }

// Step drains at most one flit if the drain pattern allows.
func (s *StallSink) Step(cycle int64) {
	if s.buffered.Len() == 0 || s.Drain == nil || !s.Drain(cycle) {
		return
	}
	e := s.buffered.Pop()
	s.perVC[e.vc]--
	if s.credUp != nil {
		s.credUp(e.vc, cycle)
	}
	s.Inner.AcceptFlit(e.f, e.vc, cycle)
}

// WaitEdge is one edge of the channel-wait graph: an in-flight packet
// holding output queue (OutPort, OutVC) that cannot advance, and why.
// The deadlock watchdog dumps these for every router when a network
// stops making progress, turning "it hangs" into a followable chain
// of who-waits-on-whom.
type WaitEdge struct {
	Router, OutPort, OutVC int
	InPort, InVC, Flow     int
	Occupancy              int64
	// Reason is what blocks the next flit: "frozen", "link-stalled",
	// "input-empty" (waiting on upstream), "no-credit" / "no-space"
	// (waiting on downstream), or "contended" (movable, lost link
	// arbitration this cycle).
	Reason string
}

// WaitEdges returns the channel-wait graph edges of every currently
// blocked output-queue allocation, evaluated against the state at the
// given cycle. Only outputs holding allocations are visited
// (lockCount), so dumping a big, mostly-idle mesh costs its traffic,
// not its radix.
func (r *Router) WaitEdges(cycle int64) []WaitEdge {
	var edges []WaitEdge
	frozen := r.frozen != nil && r.frozen(cycle) > 0
	for o := 0; o < r.cfg.Ports; o++ {
		if r.outs[o].lockCount == 0 {
			continue
		}
		stalled := r.outFault[o] != nil && r.outFault[o].Stalled(cycle) > 0
		for v := 0; v < r.cfg.VCs; v++ {
			l := r.locks[o*r.cfg.VCs+v]
			if !l.active {
				continue
			}
			reason := "contended"
			pb := &r.in[l.port]
			switch {
			case frozen:
				reason = "frozen"
			case stalled:
				reason = "link-stalled"
			case pb.empty(l.vc):
				reason = "input-empty"
			case r.gateOut[o] != nil && !r.gateOut[o].canAccept(v):
				reason = "no-space"
			case r.gateOut[o] == nil && r.crd[o*r.cfg.VCs+v] <= 0:
				reason = "no-credit"
			}
			edges = append(edges, WaitEdge{
				Router: r.id, OutPort: o, OutVC: v,
				InPort: l.port, InVC: l.vc, Flow: l.flow,
				Occupancy: cycle - l.since, Reason: reason,
			})
		}
	}
	return edges
}

// String renders the edge for wait-graph dumps.
func (e WaitEdge) String() string {
	return fmt.Sprintf("router %d out(%d,%d) <- in(%d,%d) flow %d occ %d: %s",
		e.Router, e.OutPort, e.OutVC, e.InPort, e.InVC, e.Flow, e.Occupancy, e.Reason)
}
