// Package trace is the packet flight recorder: span-style lifecycle
// records for a sampled subset of packets — inject (queue entry),
// one record per router hop with the hop's latency decomposed
// (queueing, arbitration, link contention, upstream starvation,
// credit/space starvation), and tail delivery — captured as
// allocation-free fixed-size records in per-router ring buffers and
// merged deterministically at drain.
//
// Determinism contract: whether a packet is sampled is a pure
// function of (seed, packet id), and every recorded field is derived
// from simulation events that the stepping-mode oracles (stepped vs
// event-driven, serial vs sharded-parallel, work-list vs full-scan)
// produce identically. Soft blocks are counted at per-cycle visits
// that happen in every mode (a soft-blocked output stays on the
// pending work-list, so its router is stepped at those cycles even
// event-to-event); hard blocks are recorded as intervals opened at a
// visited cycle and closed by the serial-commit event that ends them
// (flit arrival, credit return). Fault-induced blocking is the one
// thing a dormant event-driven run never visits, so it is attributed
// at export time by overlapping each hop's [grant, depart] span with
// the parsed fault windows — identical in every mode by construction.
// The result: trace exports are byte-identical across -reference, the
// event core, and -parallel-mesh at any worker count.
package trace

import (
	"repro/internal/flit"
	"repro/internal/obs"
	"sort"
)

// Kind discriminates Record. The numeric order is the merge order
// within one cycle: a packet injected at cycle c sorts before hops
// completing at c, which sort before deliveries at c.
type Kind uint8

const (
	// KindInject marks a packet entering its source queue.
	KindInject Kind = iota
	// KindHop marks one completed router hop (tail flit forwarded).
	KindHop
	// KindDeliver marks the tail flit ejected at the destination.
	KindDeliver
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindHop:
		return "hop"
	case KindDeliver:
		return "deliver"
	}
	return "?"
}

// Record is one fixed-size flight-recorder event. Field meaning by
// Kind:
//
//   - KindInject: Router is the source node, Cycle the queue-entry
//     cycle, Len/Dst/Flow the packet header.
//   - KindHop: Router is the hop's router; the packet occupied input
//     (InPort, InVC) and departed through output (OutPort, OutVC).
//     Arrive is the head flit's arrival at this hop, Eligible the
//     announce-to-arbiter cycle, Grant the arbitration win, Cycle the
//     tail's departure. Contend/UpGap/CrdWait decompose the cycles in
//     (Grant, Cycle]: link-contention losses, upstream starvation
//     (input-empty intervals plus just-arrived-flit waits), and
//     downstream starvation (credit-exhausted intervals plus stop/go
//     gate refusals). Fault-induced cycles are not stored — they are
//     computed at export time from the fault windows (FaultCycles).
//   - KindDeliver: Router is the destination node, Cycle the delivery
//     cycle, Arrive the inject cycle (so end-to-end latency is
//     Cycle-Arrive+1).
type Record struct {
	Kind   Kind
	InPort int8
	InVC   int8
	// OutPort/OutVC are int16 rather than int8: a single-switch run
	// (switchsim) may have more than 127 ports.
	OutPort  int16
	OutVC    int16
	Router   int32
	Flow     int32
	Len      int32
	Dst      int32
	Contend  int32
	UpGap    int32
	CrdWait  int32
	PktID    int64
	Cycle    int64
	Arrive   int64
	Eligible int64
	Grant    int64
}

// Sampler decides, purely from (seed, packet id), whether a packet is
// traced. The decision hashes the id with a splitmix64 finalizer, so
// sampled ids are spread uniformly regardless of allocation order and
// the same (seed, every) pair elects the same packets in every
// stepping mode.
type Sampler struct {
	seed   uint64
	thresh uint64
}

// NewSampler returns a sampler electing roughly one in every packets
// (0 = none, 1 = all).
func NewSampler(seed uint64, every int) Sampler {
	var t uint64
	switch {
	case every <= 0:
		t = 0
	case every == 1:
		t = ^uint64(0)
	default:
		t = ^uint64(0)/uint64(every) + 1
	}
	return Sampler{seed: seed, thresh: t}
}

// Sample reports whether the packet id is traced.
func (s Sampler) Sample(pktID int64) bool {
	switch s.thresh {
	case 0:
		return false
	case ^uint64(0):
		return true
	}
	return mix64(s.seed^uint64(pktID)*0x9e3779b97f4a7c15) < s.thresh
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Config configures a Trace.
type Config struct {
	// Seed derives the sampling decision (independent of the traffic
	// seed unless the caller reuses it).
	Seed uint64
	// SampleEvery traces roughly one in this many packets (0 = none,
	// 1 = every packet).
	SampleEvery int
	// RingCap is the per-router hop-record ring capacity (default
	// 1024). A full ring overwrites its oldest records, counted in
	// the "trace.records_dropped" metric.
	RingCap int
	// MeshRingCap is the inject/deliver ring capacity (default 16384).
	MeshRingCap int
	// Flows is the per-flow rollup width (number of source nodes /
	// flows); rollups ignore flow ids outside [0, Flows).
	Flows int
	// EpochCycles is the Jain fairness epoch length (default 16384).
	EpochCycles int64
	// Reg receives the rollup metrics; nil creates a private registry.
	Reg *obs.Registry
}

// Trace owns the flight recorder for one simulation: the sampler, the
// inject/deliver ring, the per-router hop recorders, and the per-flow
// rollup.
type Trace struct {
	cfg     Config
	s       Sampler
	mesh    ring
	routers []*RouterTrace
	rollup  *Rollup
	sampled *obs.Counter
	dropped *obs.Counter
}

// New builds a Trace from cfg, applying defaults for zero fields.
func New(cfg Config) *Trace {
	if cfg.RingCap <= 0 {
		cfg.RingCap = 1024
	}
	if cfg.MeshRingCap <= 0 {
		cfg.MeshRingCap = 16384
	}
	if cfg.EpochCycles <= 0 {
		cfg.EpochCycles = 16384
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	if cfg.Flows < 0 {
		cfg.Flows = 0
	}
	t := &Trace{
		cfg:     cfg,
		s:       NewSampler(cfg.Seed, cfg.SampleEvery),
		rollup:  newRollup(cfg.Flows, cfg.EpochCycles, cfg.Reg),
		sampled: cfg.Reg.Counter("trace.packets_sampled"),
		dropped: cfg.Reg.Counter("trace.records_dropped"),
	}
	t.mesh.init(cfg.MeshRingCap, func() { t.dropped.Inc() })
	return t
}

// Sampler returns the trace's packet sampler.
func (t *Trace) Sampler() Sampler { return t.s }

// Registry returns the registry holding the rollup metrics.
func (t *Trace) Registry() *obs.Registry { return t.cfg.Reg }

// Rollup returns the per-flow rollup.
func (t *Trace) Rollup() *Rollup { return t.rollup }

// AddRouter creates (and returns) the hop recorder for router id,
// which the caller installs with Router.SetTracer. ports and vcs size
// the per-input tracking state; bufFlits bounds how many sampled
// heads can be queued per input VC.
func (t *Trace) AddRouter(id, ports, vcs, bufFlits int) *RouterTrace {
	rt := newRouterTrace(id, ports, vcs, bufFlits, t)
	t.routers = append(t.routers, rt)
	return rt
}

// Inject records a packet entering its source queue (rollup always;
// a ring record only when the packet is sampled).
func (t *Trace) Inject(pktID int64, src, dst, flow, length int, cycle int64) {
	if !t.s.Sample(pktID) {
		return
	}
	t.sampled.Inc()
	t.mesh.append(Record{
		Kind: KindInject, Router: int32(src), Flow: int32(flow),
		Len: int32(length), Dst: int32(dst), PktID: pktID, Cycle: cycle,
	})
}

// Deliver records a packet's tail ejected at its destination. Called
// from the serial commit phase for every delivered packet (the rollup
// covers all traffic); the ring record is appended only when sampled.
func (t *Trace) Deliver(tail flit.Flit, length int, latency, cycle int64) {
	t.rollup.delivered(tail.Flow, length, latency, cycle)
	if !t.s.Sample(tail.PktID) {
		return
	}
	t.mesh.append(Record{
		Kind: KindDeliver, Router: int32(tail.Dst), Flow: int32(tail.Flow),
		Len: int32(length), Dst: int32(tail.Dst), PktID: tail.PktID,
		Cycle: cycle, Arrive: cycle - latency + 1,
	})
}

// Finish flushes the rollup's final partial Jain epoch. Call once,
// after the simulation drains, before reading records or rollups.
func (t *Trace) Finish(cycle int64) { t.rollup.finish(cycle) }

// Dropped returns how many records were lost to ring overwrites.
func (t *Trace) Dropped() int64 { return t.dropped.Value() }

// Records merges every ring into one deterministic sequence, ordered
// by (cycle, kind, ring) with each ring's internal order preserved.
// Rings are read non-destructively, so Records may be called more
// than once. Overwritten records are simply absent; the merge order
// of what survives is unaffected.
func (t *Trace) Records() []Record {
	type keyed struct {
		rec  Record
		ring int32
	}
	n := t.mesh.len()
	for _, rt := range t.routers {
		n += rt.ring.len()
	}
	ks := make([]keyed, 0, n)
	t.mesh.each(func(r Record) { ks = append(ks, keyed{rec: r, ring: -1}) })
	for _, rt := range t.routers {
		rt.ring.each(func(r Record) { ks = append(ks, keyed{rec: r, ring: rt.id}) })
	}
	sort.SliceStable(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		if a.rec.Cycle != b.rec.Cycle {
			return a.rec.Cycle < b.rec.Cycle
		}
		if a.rec.Kind != b.rec.Kind {
			return a.rec.Kind < b.rec.Kind
		}
		return a.ring < b.ring
	})
	out := make([]Record, len(ks))
	for i := range ks {
		out[i] = ks[i].rec
	}
	return out
}

// sortRecords orders records by (cycle, kind, router/track), keeping
// the existing order of equals (appends within one track are already
// chronological).
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Router < b.Router
	})
}
