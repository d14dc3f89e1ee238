// Package noc is the network kernel: it builds wormhole networks out
// of the routers of package wormhole — a k-ary 2-mesh or torus with
// dimension-order routing (NewMesh), or any explicit router graph
// (NewGraph), such as cmd/switchsim's single switch or the parking-lot
// chain — and steps them with one core: per-terminal injection and
// ejection, the active set, two-phase commit, the event core, the
// reference mode, worker pools, fault injection, stream checks, the
// deadlock watchdog and the flight recorder. Synthetic traffic
// patterns and end-to-end latency/throughput metrics ride along.
// Every router output port is arbitrated by a pluggable discipline
// (ERR by default) billed in occupancy cycles: the paper's scheduler
// inside the system it was designed for.
package noc

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

// Mesh port numbering: port 0 is the local injection/ejection port.
const (
	PortLocal = iota
	PortEast
	PortWest
	PortNorth
	PortSouth
	numPorts
)

// Config configures a Mesh.
type Config struct {
	// K is the radix: the network has K x K nodes.
	K int
	// VCs is the number of virtual channels per port. For a torus it
	// must be even: the lower half carries packets that have not yet
	// crossed a dateline, the upper half those that have.
	VCs int
	// BufFlits is the input VC buffer depth in flits.
	BufFlits int
	// NewArb constructs each router output arbiter; it must satisfy
	// sched.HeadOfLineArb (ERR, PBRR, WRR).
	NewArb func() sched.Scheduler
	// Torus adds wraparound links in both dimensions, with minimal
	// (shortest-direction) dimension-order routing and dateline VC
	// switching for deadlock freedom.
	Torus bool
	// SharedBufFlits, when > 0, gives each router input port a
	// dynamically allocated multi-queue (DAMQ) buffer of this many
	// flits shared across its VCs, with BufFlits reserved per VC.
	SharedBufFlits int
	// SharedBufCap limits one VC's occupancy of the shared buffer
	// (anti-hogging; 0 = unlimited).
	SharedBufCap int
	// Tile is the edge length of the square commit tiles the mesh is
	// sharded into: routers are laid out tile-major in memory, each
	// tile's interior effects commit in parallel, and only
	// tile-boundary effects serialize (see DESIGN.md §14). 0 picks a
	// deterministic default from K. The tile edge is part of the
	// simulated configuration — it fixes the commit schedule — and is
	// deliberately independent of the worker count, so artifacts are
	// byte-identical at any parallelism.
	Tile int
}

// injState is the per-terminal injection front end: one packet is fed
// into the terminal's input port (port of r) at one flit per cycle.
// The queue is a
// ring-buffer FIFO (not a slice popped with q = q[1:], which keeps
// every delivered packet reachable at the run's high-water mark) so
// a burst's memory is returned as it drains. buf is the reusable
// flit materialisation buffer: flits aliases it while a packet is
// mid-injection (nil otherwise), so the steady state allocates
// nothing per packet.
type injState struct {
	r      *wormhole.Router
	port   int
	queue  queue.PacketQueue
	buf    []flit.Flit
	flits  []flit.Flit
	next   int
	vc     int
	nextVC int
}

// pktMeta is what the mesh remembers about an undelivered packet: when
// it was queued (for latency) and how long it is (so only the true
// tail flit — Seq == length-1 — can complete it; a mid-packet flit
// corrupted into a tail must not).
type pktMeta struct {
	t0     int64
	length int
}

// idSet tracks which node ids are active as a packed two-level
// bitmap: word iteration yields members in ascending id order for
// free, so additions (which arrive in commit order, not id order)
// never need a sort, and the summary level (bit w set <=> words[w]
// != 0) keeps every traversal O(members + n/4096) — at a million
// routers a sparse active set no longer pays a 16K-word sweep per
// cycle. sorted materialises the members into a scratch slice reused
// across cycles.
type idSet struct {
	words   []uint64
	summary []uint64
	n       int
	scratch []int
}

func newIDSet(n int) *idSet {
	nw := (n + 63) / 64
	return &idSet{words: make([]uint64, nw), summary: make([]uint64, (nw+63)/64)}
}

func (s *idSet) add(id int) {
	wi := id >> 6
	w := &s.words[wi]
	b := uint64(1) << uint(id&63)
	if *w&b == 0 {
		if *w == 0 {
			s.summary[wi>>6] |= 1 << uint(wi&63)
		}
		*w |= b
		s.n++
	}
}

// addAtomic is add for the parallel commit phase: tile owners
// re-activate routers concurrently, so both bitmap levels are set
// with CAS loops. The membership counter is not maintained — the
// caller recounts once after the phase — because a shared counter
// would serialize exactly the hot path the tiles exist to unshare.
func (s *idSet) addAtomic(id int) {
	wi := id >> 6
	b := uint64(1) << uint(id&63)
	for {
		old := atomic.LoadUint64(&s.words[wi])
		if old&b != 0 {
			return
		}
		if !atomic.CompareAndSwapUint64(&s.words[wi], old, old|b) {
			continue
		}
		if old == 0 {
			si, sb := wi>>6, uint64(1)<<uint(wi&63)
			for {
				os := atomic.LoadUint64(&s.summary[si])
				if os&sb != 0 || atomic.CompareAndSwapUint64(&s.summary[si], os, os|sb) {
					break
				}
			}
		}
		return
	}
}

// recount restores the membership counter after a concurrent-add
// phase. Cost is proportional to the populated words, not the
// universe.
func (s *idSet) recount() {
	n := 0
	for si, sw := range s.summary {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			n += bits.OnesCount64(s.words[wi])
		}
	}
	s.n = n
}

// sorted returns the member ids in ascending order. The slice is the
// set's scratch buffer: stable across add/prune, overwritten by the
// next sorted call.
func (s *idSet) sorted() []int {
	ids := s.scratch[:0]
	for si, sw := range s.summary {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := s.words[wi]
			for w != 0 {
				ids = append(ids, wi<<6+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
	s.scratch = ids
	return ids
}

// forEach calls fn for every member in ascending order without
// materialising a slice.
func (s *idSet) forEach(fn func(id int)) {
	for si, sw := range s.summary {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := s.words[wi]
			for w != 0 {
				fn(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// prune drops every member for which keep returns false.
func (s *idSet) prune(keep func(id int) bool) {
	for si := range s.summary {
		sw := s.summary[si]
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := s.words[wi]
			for w != 0 {
				id := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if !keep(id) {
					s.words[wi] &^= 1 << uint(id&63)
					s.n--
				}
			}
			if s.words[wi] == 0 {
				s.summary[si] &^= 1 << uint(wi&63)
			}
		}
	}
}

func (s *idSet) len() int { return s.n }

// Mesh is a wormhole network: a K x K mesh or torus (NewMesh) or an
// explicit router graph (NewGraph). Node ids — Send's sources and
// destinations, packet flows, the delivery counters — are terminal
// ids; on a mesh terminal, router and node id coincide.
//
// Stepping is quiescence-aware, two-phase, and tile-sharded. Routers
// register on an active set when a flit arrives
// (wormhole.Router.SetOnActive) and retire when they go idle;
// injection front ends do the same when packets are queued. Each
// cycle touches only active nodes — a skipped router's Step is
// provably a strict no-op — so a big mesh at low load pays for its
// traffic, not its radix.
//
// The mesh is partitioned into square tiles of Config.Tile edge
// length, and routers are stored tile-major (physical ids remap the
// row-major node ids so a tile's routers, FIFOs, and bitmap words are
// contiguous in memory). Within a cycle, each tile — owned by exactly
// one worker — Computes its active routers against frozen cycle-start
// state and immediately applies the effects that stay inside the tile
// (wormhole.Effects.ApplyDomain); only effects that cross a tile
// boundary (a perimeter term, not an area term) are deferred and
// committed serially in ascending tile order after the parallel
// phase. The schedule — tiles ascending, routers ascending within a
// tile, interior before boundary — has no worker-count term anywhere,
// so artifacts are byte-identical at any parallelism (DESIGN.md §14).
type Mesh struct {
	cfg     Config             // NewMesh's configuration (zero for a graph)
	routers []*wormhole.Router // router-id (on a mesh, row-major node-id) order
	sinks   []*wormhole.Sink   // per terminal
	inj     []injState         // per terminal
	cycle   int64
	nextID  int64

	// Router dimensions (Graph.VCs, BufFlits, SharedBufFlits > 0) and
	// the VCs injection rotates across.
	vcs, bufFlits, injVCs int
	shared                bool
	// drains are the bounded ejection sinks of terminals with a drain
	// pattern (Terminal.Drain), stepped after each commit.
	drains []*wormhole.StallSink

	inflight map[int64]pktMeta
	// faults is the injector Protect installed (nil = fault-free); it
	// draws which sent packets are malformed, and malformed maps each
	// such packet still queued to its kind.
	faults    *fault.Injector
	malformed map[int64]string

	// tr, when non-nil, is the packet flight recorder (EnableTrace):
	// injects are recorded in Send, deliveries in onTail — both on
	// serial phases of the step, so the recorder needs no locking.
	tr *trace.Trace

	activeR *idSet             // routers with buffered flits or live allocations (physical ids)
	activeI *idSet             // nodes with queued or mid-injection packets (node ids)
	fx      []wormhole.Effects // per-router effect buffers, physical order
	allIDs  []int
	pool    *exec.Pool
	// reference selects the literal oracle (SetReference): every cycle
	// stepped, every router computed, full ports-x-VCs scans.
	reference bool

	// Tile-major layout: physR lists the routers in physical (tile-
	// major) order, the storage and commit order; router ids stay the
	// public id space every API keeps. tileStart[t] is the first
	// physical id of tile t, so a tile is one contiguous id range.
	physR     []*wormhole.Router
	tileEdge  int
	numTiles  int
	tileStart []int32

	// Per-cycle tile scratch, grow-only so the steady state allocates
	// nothing and nothing is keyed to a worker count (a pool of any
	// size, attached at any time, reuses the same scratch): tileOff
	// splits the sorted active ids into per-tile spans; rest[t]
	// buffers tile t's deferred boundary effects; tileTasks[i] commits
	// the tiles in [groupBound[i], groupBound[i+1]).
	tileOff    []int32
	rest       []wormhole.Effects
	tileTasks  []func()
	groupBound []int
	tileIDs    []int
	tileCycle  int64
	// parCommit is set for the duration of the parallel tile phase:
	// the routers' onActive hooks switch to the active set's CAS path.
	// Written only by the stepping goroutine, strictly before and
	// after the pool barrier.
	parCommit bool
	// arenaBytes is the router arena footprint (NewMesh); crossFx
	// counts effects committed across tile boundaries.
	arenaBytes int64
	crossFx    int64

	// sched is a min-heap of future injections (SendAt), ordered by
	// (cycle, submission order); schedSeq breaks same-cycle ties so
	// release order matches submission order deterministically.
	sched    []schedSend
	schedSeq int64
	// events is the discrete-event queue proper: externally known
	// wake-up cycles — fault-window edges registered by Protect or
	// ScheduleWake — ordered deterministically by (At, ID, Kind).
	// Together with the sched heap's head and the routers' NextEventAt
	// answers it bounds how far Run/Drain may advance event-to-event.
	events queue.EventHeap
	// dormancy records that fault-window edges were registered, so
	// canActNow must probe active routers for dormancy (frozen or
	// stall-blocked with edges known) instead of assuming an active
	// router can act. Off on fault-free meshes: the probe walk never
	// runs, so the no-fault hot path stays O(1) per cycle.
	dormancy bool
	// skipped counts cycles jumped over by time skipping.
	skipped int64

	// wd, when non-nil (Protect), is the deadlock watchdog Step
	// consults every cycle — and Run/Drain at the trip point of any
	// skipped gap, so a wedged-but-quiet network trips with its
	// diagnostic instead of being jumped silently to the horizon.
	// wedged holds the report of its single trip (Wedged).
	wd     *check.Watchdog
	wedged error

	// obs handles (nil unless RegisterObs was called).
	obsCycles          *obs.Counter
	obsComputes        *obs.Counter
	obsActiveRouters   *obs.Gauge
	obsActiveRoutersHW *obs.Gauge
	obsActiveInjectors *obs.Gauge
	obsCellsVisited    *obs.Counter
	obsWorklistLen     *obs.Gauge
	obsCyclesSkipped   *obs.Counter
	obsCrossShard      *obs.Counter
	obsBytesPerRouter  *obs.Gauge

	// Latency accumulates end-to-end packet latencies (inject of head
	// flit enqueued -> tail flit ejected).
	Latency stats.Welford
	// DeliveredFlits counts ejected flits per source terminal
	// (malformed packets' flits included, out-of-range flows skipped).
	DeliveredFlits []int64
	// DeliveredPackets counts ejected packets per source terminal.
	DeliveredPackets []int64
}

// autoTile picks the default commit tile edge for a K x K mesh: tiny
// meshes get ~2x2 tiles so the tiled machinery is exercised (and
// differentially tested) even at K=4, mid-size meshes 8x8, large
// meshes 32x32 — which at K=1024 yields 1024 tiles, enough parallel
// grain for any realistic worker count while the serialized boundary
// stays a perimeter term (4/32 of a tile's links), not an area term.
// The rule depends only on K, never on the machine, so a config means
// the same simulation everywhere.
func autoTile(k int) int {
	switch {
	case k <= 8:
		return (k + 1) / 2
	case k <= 64:
		return 8
	default:
		return 32
	}
}

// routeTableNodes caps the precomputed per-router routing tables:
// below it every router gets a dst -> output-port byte table (n bytes
// per router, n² total — fast and still small); above it the tables'
// quadratic footprint would dwarf the routers themselves (a terabyte
// at a million nodes), so routing falls back to the closed-form
// coordinate math per head flit.
const routeTableNodes = 4096

// NewMesh validates cfg and builds the mesh or torus as a router
// graph (NewGraph's builder) laid out tile-major: all per-router state
// is carved out of one flat arena in tile-major order (see
// BytesPerRouter), so construction cost and footprint stay linear and
// a commit tile is contiguous in memory.
func NewMesh(cfg Config) (*Mesh, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("noc: mesh radix %d < 2", cfg.K)
	}
	if cfg.NewArb == nil {
		return nil, fmt.Errorf("noc: NewArb is required")
	}
	if cfg.Torus && (cfg.VCs < 2 || cfg.VCs%2 != 0) {
		return nil, fmt.Errorf("noc: torus dateline routing needs an even VC count >= 2, got %d", cfg.VCs)
	}
	tile := cfg.Tile
	if tile == 0 {
		tile = autoTile(cfg.K)
	}
	if tile < 1 || tile > cfg.K {
		return nil, fmt.Errorf("noc: tile edge %d outside [1, %d]", tile, cfg.K)
	}
	n := cfg.K * cfg.K
	g := Graph{
		Routers:        n,
		Ports:          numPorts,
		Terminals:      make([]Terminal, n),
		Route:          cfg.route,
		NewArb:         func(int) func() sched.Scheduler { return cfg.NewArb },
		VCs:            cfg.VCs,
		BufFlits:       cfg.BufFlits,
		SharedBufFlits: cfg.SharedBufFlits,
		SharedBufCap:   cfg.SharedBufCap,
	}
	if cfg.Torus {
		// Packets start in the lower (pre-dateline) half of the VCs.
		g.InjectVCs = cfg.VCs / 2
		g.OutVC = func(r int) func(int, flit.Flit, int, int) int {
			return func(outPort int, _ flit.Flit, inPort, inVC int) int {
				return cfg.torusOutVC(r, outPort, inPort, inVC)
			}
		}
	}
	link := func(a, pa, b, pb int) {
		g.Links = append(g.Links, Link{From: a, Out: pa, To: b, In: pb}, Link{From: b, Out: pb, To: a, In: pa})
	}
	for y := 0; y < cfg.K; y++ {
		for x := 0; x < cfg.K; x++ {
			id := y*cfg.K + x
			g.Terminals[id] = Terminal{Router: id, Inject: PortLocal, Eject: PortLocal}
			switch {
			case x+1 < cfg.K:
				link(id, PortEast, id+1, PortWest)
			case cfg.Torus:
				link(id, PortEast, id-x, PortWest) // wraparound (K-1, y) <-> (0, y)
			}
			switch {
			case y+1 < cfg.K:
				link(id, PortSouth, id+cfg.K, PortNorth)
			case cfg.Torus:
				link(id, PortSouth, x, PortNorth) // wraparound (x, K-1) <-> (x, 0)
			}
		}
	}
	// Tile-major physical layout: tiles in row-major tile order, rows
	// row-major within each tile. Edge tiles are smaller when K % tile
	// != 0. Node ids (y*K+x) stay the public id space everywhere —
	// Send, Coords, fault specs, traffic patterns — only storage and
	// commit order use physical ids.
	tw := (cfg.K + tile - 1) / tile
	order := make([]int32, 0, n)
	tileStart := make([]int32, 0, tw*tw+1)
	for ty := 0; ty < tw; ty++ {
		for tx := 0; tx < tw; tx++ {
			tileStart = append(tileStart, int32(len(order)))
			for y := ty * tile; y < min((ty+1)*tile, cfg.K); y++ {
				for x := tx * tile; x < min((tx+1)*tile, cfg.K); x++ {
					order = append(order, int32(y*cfg.K+x))
				}
			}
		}
	}
	tileStart = append(tileStart, int32(n))
	m, err := build(g, order, tileStart)
	if err != nil {
		return nil, err
	}
	m.cfg, m.tileEdge = cfg, tile
	return m, nil
}

// torusOutVC implements dateline virtual-channel switching: packets
// start (and restart on every dimension change) in the lower half of
// the VCs; the hop that crosses a wraparound link moves them to the
// upper half. Within each unidirectional ring this breaks the channel
// dependency cycle, so minimal dimension-order routing on the torus
// is deadlock-free.
func (c *Config) torusOutVC(at, outPort, inPort, inVC int) int {
	if outPort == PortLocal {
		return inVC // ejection: VC is immaterial
	}
	half := c.VCs / 2
	vc := inVC
	if dimOf(outPort) != dimOf(inPort) || inPort == PortLocal {
		vc = inVC % half // fresh dimension: back to the lower half
	}
	if c.crossesWrap(at, outPort) && vc < half {
		vc += half
	}
	return vc
}

// dimOf returns the dimension a port belongs to (0 = X, 1 = Y,
// 2 = local).
func dimOf(port int) int {
	switch port {
	case PortEast, PortWest:
		return 0
	case PortNorth, PortSouth:
		return 1
	default:
		return 2
	}
}

// crossesWrap reports whether forwarding out of the given port of
// node at traverses a wraparound link.
func (c *Config) crossesWrap(at, outPort int) bool {
	x, y := at%c.K, at/c.K
	switch outPort {
	case PortEast:
		return x == c.K-1
	case PortWest:
		return x == 0
	case PortSouth:
		return y == c.K-1
	case PortNorth:
		return y == 0
	default:
		return false
	}
}

// NodeID maps mesh coordinates to a node id.
func (m *Mesh) NodeID(x, y int) int { return y*m.cfg.K + x }

// Coords maps a node id to mesh coordinates.
func (m *Mesh) Coords(id int) (x, y int) { return id % m.cfg.K, id / m.cfg.K }

// Nodes returns the node (terminal) count.
func (m *Mesh) Nodes() int { return len(m.inj) }

// route implements dimension-order (XY) routing: on the mesh it is
// deadlock-free outright; on the torus it picks the minimal ring
// direction per dimension and relies on dateline VC switching for
// deadlock freedom.
func (c *Config) route(at, dst int) int {
	ax, ay := at%c.K, at/c.K
	dx, dy := dst%c.K, dst/c.K
	if dx != ax {
		if !c.Torus {
			if dx > ax {
				return PortEast
			}
			return PortWest
		}
		return ringDir(ax, dx, c.K, PortEast, PortWest)
	}
	if dy != ay {
		if !c.Torus {
			if dy > ay {
				return PortSouth
			}
			return PortNorth
		}
		return ringDir(ay, dy, c.K, PortSouth, PortNorth)
	}
	return PortLocal
}

// ringDir returns the minimal direction around a K-ring from a to d
// (ties go to the positive direction).
func ringDir(a, d, k, pos, neg int) int {
	fwd := (d - a + k) % k
	bwd := (a - d + k) % k
	if fwd <= bwd {
		return pos
	}
	return neg
}

func (m *Mesh) onFlit(f flit.Flit, vc int, cycle int64) {
	// A malformed packet's flow may lie outside the terminals.
	if uint(f.Flow) < uint(len(m.DeliveredFlits)) {
		m.DeliveredFlits[f.Flow]++
	}
}

func (m *Mesh) onTail(f flit.Flit, cycle int64) {
	// Only the packet's true tail (its last flit by sequence number)
	// completes it. Under fault injection a corrupted body flit can
	// arrive wearing a tail kind; counting that as a completion let
	// Drain report success with the rest of the worm still in the
	// network, and double-counted the packet when the real tail came.
	meta, ok := m.inflight[f.PktID]
	if !ok || f.Seq != meta.length-1 {
		return
	}
	m.DeliveredPackets[f.Flow]++
	m.Latency.Add(float64(cycle - meta.t0 + 1))
	if m.tr != nil {
		m.tr.Deliver(f, meta.length, cycle-meta.t0+1, cycle)
	}
	delete(m.inflight, f.PktID)
}

// Send queues a packet for injection at node src toward node dst.
// The packet's Flow is overwritten with src so per-source fairness is
// measurable at the ejection sinks. Under malformed(...) faults
// (Protect) the packet may instead be injected as a malformed flit
// stream, which the fault injector counts and the network keeps out
// of InFlight, Latency and the flight recorder.
func (m *Mesh) Send(src, dst, length int) {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic("noc: node id out of range")
	}
	if m.inj[src].port < 0 {
		panic("noc: node has no injection port")
	}
	if length < 1 {
		panic("noc: packet length < 1")
	}
	id := m.nextID
	m.nextID++
	p := flit.Packet{Flow: src, Length: length, Dst: dst, ID: id}
	if kind := m.faults.Malformed(); kind != "" {
		if m.malformed == nil {
			m.malformed = make(map[int64]string)
		}
		m.malformed[id] = kind
	} else {
		m.inflight[id] = pktMeta{t0: m.cycle, length: length}
		if m.tr != nil {
			m.tr.Inject(id, src, dst, src, length, m.cycle)
		}
	}
	m.inj[src].queue.Push(p)
	m.activeI.add(src)
}

// schedSend is a future injection queued by SendAt.
type schedSend struct {
	at, seq          int64
	src, dst, length int
}

// schedLess orders the SendAt heap by release cycle, then submission
// order.
func schedLess(a, b schedSend) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// SendAt schedules Send(src, dst, length) for the start of cycle at.
// Due sends are released in submission order before each step, so a
// schedule is equivalent to calling Send at exactly those cycles —
// and it is what tells Run and Drain how far they may jump when the
// network goes quiet between bursts (idle-gap time skipping).
func (m *Mesh) SendAt(at int64, src, dst, length int) {
	if at <= m.cycle {
		m.Send(src, dst, length)
		return
	}
	m.sched = append(m.sched, schedSend{at: at, seq: m.schedSeq, src: src, dst: dst, length: length})
	m.schedSeq++
	// Sift up.
	i := len(m.sched) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !schedLess(m.sched[i], m.sched[p]) {
			break
		}
		m.sched[i], m.sched[p] = m.sched[p], m.sched[i]
		i = p
	}
}

// releaseDue pops every scheduled send due at or before the current
// cycle, in (cycle, submission) order.
func (m *Mesh) releaseDue() {
	for len(m.sched) > 0 && m.sched[0].at <= m.cycle {
		s := m.sched[0]
		n := len(m.sched) - 1
		m.sched[0] = m.sched[n]
		m.sched = m.sched[:n]
		// Sift down.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && schedLess(m.sched[c+1], m.sched[c]) {
				c++
			}
			if !schedLess(m.sched[c], m.sched[i]) {
				break
			}
			m.sched[i], m.sched[c] = m.sched[c], m.sched[i]
			i = c
		}
		m.Send(s.src, s.dst, s.length)
	}
}

// PendingAt returns the number of packets queued or mid-injection at
// node src.
func (m *Mesh) PendingAt(src int) int {
	st := &m.inj[src]
	n := st.queue.Len()
	if st.flits != nil {
		n++
	}
	return n
}

// InFlight returns the number of packets injected (or queued) but not
// yet fully delivered.
func (m *Mesh) InFlight() int { return len(m.inflight) }

// Cycle returns the current cycle.
func (m *Mesh) Cycle() int64 { return m.cycle }

// SetPool attaches a persistent worker pool: Step (and so Run and
// Drain) shards its compute and tile-interior commit phases across
// it. nil restores serial stepping. A pool may be attached, swapped,
// or removed between any two steps; artifacts are identical either
// way.
func (m *Mesh) SetPool(p *exec.Pool) { m.pool = p }

// SetReference, when on, runs the mesh as its own literal oracle: Run
// and Drain step every cycle instead of jumping provably idle gaps,
// every Step computes all routers instead of the active set, and
// every router arbitrates with full ports-x-VCs scans instead of the
// event-driven work-lists (wormhole.Router.SetFullScan). Each fast
// path skips only work that is a strict no-op, so every simulation
// artifact is byte-identical either way; only the telemetry counting
// performed work differs (noc.router_computes, noc.cells_visited,
// noc.cycles_skipped). The differential tests and cmd/nocsim's
// -reference flag compare against it.
func (m *Mesh) SetReference(on bool) {
	m.reference = on
	for _, r := range m.routers {
		r.SetFullScan(on)
	}
}

// Skipped returns the number of no-op cycles jumped over by
// event-driven advancement.
func (m *Mesh) Skipped() int64 { return m.skipped }

// ScheduleWake registers an externally known cycle at which mesh
// state may change without any in-network progress event — a
// fault-window edge opening or closing — so event-driven Run/Drain
// will not treat a dormant (fault-blocked) network as skippable past
// it. Protect registers every window edge of its injector
// automatically; callers installing windowed fault hooks directly on
// routers (Router.SetFreeze / SetOutputFault combined with
// SetFaultEdgesKnown) must register each edge here themselves.
// Duplicate and past cycles are harmless; events are dropped lazily
// once due.
func (m *Mesh) ScheduleWake(at int64) {
	m.events.Push(queue.Event{At: at, Kind: evWake})
	m.dormancy = true
}

// Event kinds on the mesh event queue. Same-cycle events pop in the
// deterministic (At, ID, Kind) order of queue.EventHeap.
const (
	evWake uint8 = iota // externally registered wake (fault-window edge)
)

// canActNow reports whether stepping the mesh at the current cycle
// could change simulation state: some active router can act now, some
// injection front end can make progress, or some drain sink holds
// flits. With no fault-window
// edges registered (m.dormancy off) an active router always counts as
// actable — the dormancy probe is skipped, keeping the fault-free
// path O(1) per cycle.
func (m *Mesh) canActNow() bool {
	if m.activeR.len() > 0 {
		if !m.dormancy {
			return true
		}
		// Probe active routers for one that can act at m.cycle; walk
		// the bitmap hierarchy directly (no closure) to stay off the
		// heap.
		for si, sw := range m.activeR.summary {
			for sw != 0 {
				wi := si<<6 + bits.TrailingZeros64(sw)
				sw &= sw - 1
				w := m.activeR.words[wi]
				for w != 0 {
					id := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					if m.physR[id].NextEventAt(m.cycle) <= m.cycle {
						return true
					}
				}
			}
		}
	}
	for si, sw := range m.activeI.summary {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := m.activeI.words[wi]
			for w != 0 {
				id := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if m.injCanProgress(id) {
					return true
				}
			}
		}
	}
	// A drain sink holding flits draws its drain pattern every cycle.
	for _, d := range m.drains {
		if d.Len() > 0 {
			return true
		}
	}
	return false
}

// injCanProgress reports whether node id's injection front end can
// make progress this cycle. Materialising the next queued packet
// mutates front-end state (VC assignment, flit buffer) even when the
// first flit is then refused, so a non-empty queue always counts.
func (m *Mesh) injCanProgress(id int) bool {
	st := &m.inj[id]
	if st.flits == nil {
		return !st.queue.Empty()
	}
	return st.r.CanAccept(st.port, st.vc)
}

// nextEventCycle returns the cycle Run/Drain should handle next: the
// current cycle when something can act now (step it), otherwise the
// earliest future event — scheduled send, registered fault-window
// edge, or the horizon itself. Fault-window edges only bound the jump
// while some router holds work: a window opening and closing over a
// completely idle network is a strict no-op, so a fully idle mesh
// skips straight across it.
func (m *Mesh) nextEventCycle(end int64) int64 {
	if m.reference || m.canActNow() {
		return m.cycle
	}
	next := end
	if len(m.sched) > 0 && m.sched[0].at < next {
		next = m.sched[0].at
	}
	if m.activeR.len() > 0 {
		if at := m.events.DropDue(m.cycle); at < next {
			next = at
		}
	}
	return next
}

// HorizonCap is the absolute cycle horizon of a run. Run and Drain
// clamp cycle+n to it so horizon arithmetic cannot overflow int64
// even at maxCycles == math.MaxInt64 (the fault package leaves the
// same headroom in its permanent-window encoding). At ~2.3e18 cycles
// it is beyond any reachable simulation length.
const HorizonCap int64 = math.MaxInt64 >> 2

// horizonEnd returns the end cycle for a run of n more cycles,
// clamped to HorizonCap. Negative n yields the current cycle (a
// no-op run), never a wrapped horizon.
func (m *Mesh) horizonEnd(n int64) int64 {
	if n < 0 {
		return m.cycle
	}
	if m.cycle >= HorizonCap || n >= HorizonCap || m.cycle+n > HorizonCap {
		return HorizonCap
	}
	return m.cycle + n
}

// skipGap jumps from the current cycle to next without stepping,
// first consulting the watchdog at its exact trip point. A stepped
// run consults the watchdog every cycle of the gap; an event-driven
// run must therefore trip at the same cycle — not silently jump a
// wedged-but-quiet network (in-flight flits, nothing runnable) to
// the horizon and lose the deadlock diagnostic.
func (m *Mesh) skipGap(next int64) {
	if m.wd != nil && !m.wd.Tripped() && len(m.inflight) > 0 {
		if at := m.wd.ExpiresAt(); at <= next {
			if at < m.cycle {
				at = m.cycle
			}
			m.checkWedge(at)
		}
	}
	m.skipTo(next)
}

// checkWedge consults the watchdog at cycle c and, on its single
// tripping call, records the wedge report Wedged returns.
func (m *Mesh) checkWedge(c int64) {
	if m.wd.Expired(c, int64(len(m.inflight))) {
		m.wedged = m.wedgeReport(c)
	}
}

// skipTo jumps the cycle counter to c without stepping. Only call
// when every skipped cycle is a no-op; the obs cycle counter advances
// as if the cycles had been stepped (with zero computes), so stepped
// and skipped runs expose identical stepping telemetry.
func (m *Mesh) skipTo(c int64) {
	k := c - m.cycle
	if k <= 0 {
		return
	}
	m.cycle = c
	m.skipped += k
	if m.obsCycles != nil {
		m.obsCycles.Add(k)
		m.obsCyclesSkipped.Add(k)
	}
}

// RegisterObs wires the mesh's stepping telemetry into reg:
// noc.cycles and noc.router_computes counters (their ratio is the
// average active-set occupancy — the work quiescence saves),
// noc.active_routers / noc.active_routers_high_water /
// noc.active_injectors gauges, plus the work-list economy metrics:
// noc.cells_visited (arbitration sites inspected; compare against
// ports*VCs*router_computes for the scan work saved), noc.worklist_len
// (pending cells across the active set at end of cycle), and
// noc.cycles_skipped (idle cycles jumped by time skipping). Two
// tile-locality metrics ride along: noc.bytes_per_router (the arena
// footprint per router, set once here) and noc.cross_shard_effects
// (effects committed across a tile boundary — the serialized share of
// the commit; its ratio to total traffic is what tile sharding wins
// over id-stripe sharding).
func (m *Mesh) RegisterObs(reg *obs.Registry) {
	m.obsCycles = reg.Counter("noc.cycles")
	m.obsComputes = reg.Counter("noc.router_computes")
	m.obsActiveRouters = reg.Gauge("noc.active_routers")
	m.obsActiveRoutersHW = reg.Gauge("noc.active_routers_high_water")
	m.obsActiveInjectors = reg.Gauge("noc.active_injectors")
	m.obsCellsVisited = reg.Counter("noc.cells_visited")
	m.obsWorklistLen = reg.Gauge("noc.worklist_len")
	m.obsCyclesSkipped = reg.Counter("noc.cycles_skipped")
	m.obsCrossShard = reg.Counter("noc.cross_shard_effects")
	m.obsBytesPerRouter = reg.Gauge("noc.bytes_per_router")
	m.obsBytesPerRouter.Set(m.BytesPerRouter())
}

// Step advances the whole mesh by one cycle, sharding the compute
// and tile-interior commit phases across the pool installed with
// SetPool, if any, and then consults the watchdog Protect armed. The
// result is byte-identical at any worker count:
// computes touch only router-own state; each tile's interior effects
// are applied by the worker owning the tile, in a fixed tile-ascending
// order; and the only effects committed by the serial phase are the
// tile-boundary crossings, again in tile-ascending order. No part of
// the schedule depends on the worker count.
func (m *Mesh) Step() {
	m.releaseDue()
	m.injectPhase()
	ids := m.activeR.sorted()
	if m.reference {
		ids = m.allIDs
	}
	// Shared-buffer (DAMQ) gates read downstream occupancy, so they
	// are sampled serially before any compute pops a flit; a no-op on
	// meshes without shared buffers.
	if m.shared {
		for _, id := range ids {
			m.physR[id].SnapshotGates(m.cycle)
		}
	}
	// Compute + interior commit, tile by tile. Physical ids are
	// tile-major, so the sorted active set splits into contiguous
	// per-tile spans; the parallel path runs the identical per-tile
	// code on worker-owned contiguous tile ranges.
	m.partitionTiles(ids)
	m.tileIDs = ids
	m.tileCycle = m.cycle
	if g := m.planGroups(len(ids)); g > 1 {
		m.parCommit = true
		m.pool.Do(m.tileTasks[:g]...)
		m.parCommit = false
		m.activeR.recount()
	} else {
		m.runTiles(0, m.numTiles)
	}
	// Serial boundary commit, ascending tile order: the flit handoffs
	// and credit returns that crossed a tile edge, plus every sink
	// ejection (sinks feed mesh-global accounting — DeliveredFlits,
	// latency, the flight recorder — which must stay single-threaded).
	// Deliveries may re-activate quiescent routers (Router.onActive);
	// they join the iteration next cycle.
	var cross int64
	for t := range m.rest {
		rest := &m.rest[t]
		if rest.Len() == 0 {
			continue
		}
		cross += int64(rest.CrossRouter())
		rest.Apply()
		rest.Reset()
	}
	m.crossFx += cross
	// Bounded drain sinks pass a flit on after the commit; a credit they
	// return may re-activate the router feeding them.
	for _, d := range m.drains {
		d.Step(m.cycle)
	}
	// Retire routers with nothing runnable. A router still holding
	// hard-blocked worms is pruned too, because
	// every hard block resolves through an instrumented event
	// (acceptFlit, creditArrived) that re-registers it via onActive.
	m.activeR.prune(func(id int) bool {
		if m.physR[id].Runnable() {
			return true
		}
		m.physR[id].ClearActiveHint()
		return false
	})
	m.cycle++
	if m.obsCycles != nil {
		m.obsCycles.Inc()
		m.obsComputes.Add(int64(len(ids)))
		n := int64(m.activeR.len())
		m.obsActiveRouters.Set(n)
		m.obsActiveRoutersHW.SetMax(n)
		m.obsActiveInjectors.Set(int64(m.activeI.len()))
		m.obsCrossShard.Add(cross)
		var visited int64
		for _, id := range ids {
			visited += m.physR[id].TakeCellsVisited()
		}
		m.obsCellsVisited.Add(visited)
		var wl int64
		m.activeR.forEach(func(id int) {
			wl += int64(m.physR[id].WorklistLen())
		})
		m.obsWorklistLen.Set(wl)
	}
	if m.wd != nil {
		m.checkWedge(m.cycle)
	}
}

// partitionTiles splits the (physically ascending, hence tile-
// ascending) active ids into per-tile spans: tile t's active routers
// are ids[tileOff[t]:tileOff[t+1]]. One linear pass, O(active +
// tiles).
func (m *Mesh) partitionTiles(ids []int) {
	t := 0
	m.tileOff[0] = 0
	for i, id := range ids {
		for id >= int(m.tileStart[t+1]) {
			t++
			m.tileOff[t] = int32(i)
		}
	}
	for t < m.numTiles {
		t++
		m.tileOff[t] = int32(len(ids))
	}
}

// planGroups decides how many worker groups this cycle's tile phase
// fans out over and fills groupBound with contiguous tile ranges
// balanced by active-router population. Grouping only chooses which
// worker executes a tile — per-tile work and order are fixed — so the
// choice cannot affect artifacts. Returns 1 (run inline) without a
// pool or meaningful parallel work.
func (m *Mesh) planGroups(active int) int {
	if m.pool == nil || active <= 1 {
		return 1
	}
	g := m.pool.Workers()
	if g > m.numTiles {
		g = m.numTiles
	}
	if g > active {
		g = active
	}
	if g <= 1 {
		return 1
	}
	m.ensureTasks(g)
	m.groupBound[0] = 0
	t := 0
	for i := 1; i < g; i++ {
		target := int32(active * i / g)
		for t < m.numTiles && m.tileOff[t] < target {
			t++
		}
		m.groupBound[i] = t
	}
	m.groupBound[g] = m.numTiles
	return g
}

// ensureTasks grows the worker task list (and its bound slice) to g
// entries. Tasks are grow-only and capture only their index: a pool
// of any size — attached mid-run, swapped between steps, shrunk,
// grown — reuses the same closures reading the current groupBound, so
// changing worker counts never rebuilds or reallocates per-cycle
// state.
func (m *Mesh) ensureTasks(g int) {
	if len(m.groupBound) < g+1 {
		nb := make([]int, g+1)
		copy(nb, m.groupBound)
		m.groupBound = nb
	}
	for len(m.tileTasks) < g {
		i := len(m.tileTasks)
		m.tileTasks = append(m.tileTasks, func() {
			m.runTiles(m.groupBound[i], m.groupBound[i+1])
		})
	}
}

// runTiles computes and interior-commits tiles [lo, hi): per tile, in
// ascending physical-id order, every active router computes against
// frozen cycle-start state; then each router's buffered effects are
// applied to same-tile targets and deferred to the tile's rest buffer
// otherwise (wormhole.Effects.ApplyDomain). Interior commits mutate
// only this tile's routers — plus the active set, via its CAS path —
// so disjoint tile ranges run concurrently, and the fixed per-tile
// order makes serial and parallel execution byte-identical.
func (m *Mesh) runTiles(lo, hi int) {
	ids := m.tileIDs
	cyc := m.tileCycle
	for t := lo; t < hi; t++ {
		span := ids[m.tileOff[t]:m.tileOff[t+1]]
		if len(span) == 0 {
			continue
		}
		for _, id := range span {
			fx := &m.fx[id]
			fx.Reset()
			m.physR[id].Compute(cyc, fx)
		}
		rest := &m.rest[t]
		for _, id := range span {
			m.fx[id].ApplyDomain(t, rest)
		}
	}
}

// injectPhase runs the injection front ends of every node with
// pending traffic: at most one flit per node per cycle, in ascending
// node-id order (identical to the old full iteration, since a node
// without pending traffic was a no-op).
func (m *Mesh) injectPhase() {
	for _, id := range m.activeI.sorted() {
		st := &m.inj[id]
		if st.flits == nil && !st.queue.Empty() {
			m.materialise(st, st.queue.Pop())
		}
		if st.flits != nil {
			if st.r.Inject(st.port, st.vc, st.flits[st.next], m.cycle) {
				st.next++
				if st.next == len(st.flits) {
					st.flits = nil
				}
			}
		}
	}
	m.activeI.prune(func(id int) bool {
		st := &m.inj[id]
		return st.flits != nil || !st.queue.Empty()
	})
}

// materialise turns the next queued packet into st's flit stream and
// assigns it the next injection VC. A malformed packet becomes its
// malformed stream (none at all for a zero-length one, which leaves
// the front end idle this cycle).
func (m *Mesh) materialise(st *injState, p flit.Packet) {
	kind := ""
	if len(m.malformed) > 0 {
		kind = m.malformed[p.ID]
	}
	if kind != "" {
		delete(m.malformed, p.ID)
		st.buf = append(st.buf[:0], fault.MalformedFlits(kind, p.Flow, p.Length, p.ID)...)
		for i := range st.buf {
			st.buf[i].Dst = p.Dst
		}
		if len(st.buf) == 0 {
			return
		}
	} else {
		st.buf = p.AppendFlits(st.buf[:0])
		if m.tr != nil && m.tr.Sampler().Sample(p.ID) {
			for i := range st.buf {
				st.buf[i].Traced = true
			}
		}
	}
	st.flits = st.buf
	st.next = 0
	st.vc = st.nextVC % m.injVCs
	st.nextVC = (st.nextVC + 1) % m.injVCs
}

// Run advances the mesh by n cycles (clamped to HorizonCap),
// event-to-event: cycles in which something can act — a router that
// can forward or grant, an injector with traffic the network will
// take, a scheduled send or registered fault-window edge coming due —
// are stepped; provably no-op gaps between events are jumped in one
// move. The run is cycle-stamp- and artifact-identical to a stepped
// one (SetReference restores literal stepping as the oracle).
func (m *Mesh) Run(n int64) {
	end := m.horizonEnd(n)
	for m.cycle < end {
		if next := m.nextEventCycle(end); next > m.cycle {
			m.skipGap(next)
			continue
		}
		m.Step()
	}
}

// Drain runs until every in-flight packet is delivered (and every
// scheduled send released) or maxCycles elapse (clamped to
// HorizonCap); it reports whether the network drained. Gaps between
// events are jumped exactly as in Run. A wedged-but-quiet network
// (flits leaked or stuck by fault injection, nothing able to act, no
// event pending) still jumps to the horizon — no amount of stepping
// would move it — but only after the watchdog Protect armed has been
// consulted at its exact trip cycle, so the wedge report (Wedged) is
// recorded instead of the wedge being skipped over silently.
func (m *Mesh) Drain(maxCycles int64) bool {
	end := m.horizonEnd(maxCycles)
	for m.cycle < end {
		if m.InFlight() == 0 && len(m.sched) == 0 {
			return true
		}
		if next := m.nextEventCycle(end); next > m.cycle {
			m.skipGap(next)
			continue
		}
		m.Step()
	}
	return m.InFlight() == 0 && len(m.sched) == 0
}

// Router returns a router by id (tests, instrumentation).
func (m *Mesh) Router(id int) *wormhole.Router { return m.routers[id] }

// TileEdge returns a mesh's commit tile edge (0 for a graph network).
func (m *Mesh) TileEdge() int { return m.tileEdge }

// Tiles returns the number of commit tiles.
func (m *Mesh) Tiles() int { return m.numTiles }

// BytesPerRouter returns the router arena footprint per router — the
// flat preallocated storage all per-router state is carved from
// (excludes schedulers and DAMQ buffers; see wormhole.Arena.Bytes).
func (m *Mesh) BytesPerRouter() int64 { return m.arenaBytes / int64(len(m.routers)) }

// CrossShardEffects returns the cumulative number of router-target
// effects committed across a tile boundary — the serialized share of
// all commits (sink ejections are excluded: they are serial by design,
// not by geometry).
func (m *Mesh) CrossShardEffects() int64 { return m.crossFx }
