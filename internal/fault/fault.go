package fault

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

// Stream labels for rng.Derive, so each fault role draws from an
// independent stream and adding one directive never perturbs the
// randomness consumed by another.
const (
	streamDrop uint64 = 0xfa01 + iota
	streamCorrupt
	streamMalformed
)

// Counters tallies what an Injector actually did during a run. The
// counts are what the run manifest and the obs registry record, so a
// faulted experiment is auditable after the fact: how many flits were
// really lost, not just what probability was asked for.
type Counters struct {
	// StallCycles is the number of cycles the engine's injected
	// stalls imposed, in either service mode. Network stalls are never
	// counted: the event core skips the cycles they block.
	StallCycles int64 `json:"stall_cycles,omitempty"`
	// Dropped is the number of flits lost in transit.
	Dropped int64 `json:"dropped,omitempty"`
	// Corrupted is the number of flits delivered mutated.
	Corrupted int64 `json:"corrupted,omitempty"`
	// Malformed is the number of malformed packets emitted into the
	// traffic stream.
	Malformed int64 `json:"malformed,omitempty"`
}

// Injector realises a parsed Spec against a concrete simulation: it
// wraps the engine's stall model and traffic source, and manufactures
// wormhole.OutputFault / freeze hooks for routers. A nil *Injector is
// valid and injects nothing, so call sites need no fault/no-fault
// branching.
//
// All probabilistic decisions draw from streams derived from the
// given seed with rng.Derive, independent of the experiment's own
// traffic streams: a faulted run is exactly repeatable, and the
// arrival pattern is identical to the fault-free run with the same
// experiment seed.
type Injector struct {
	spec *Spec
	seed uint64

	// malformed and malSrc drive Malformed: one stream for the whole
	// network, labelled streamCorrupt with no router or port — distinct
	// from every (router, port) corrupt stream.
	malformed []Directive
	malSrc    *rng.Source

	// Counter cells are atomic because outputFault hooks fire from the
	// routers' compute phase, which the mesh may shard across workers;
	// each hook still draws from its own per-(router,port) rng stream,
	// so only the tallies are shared.
	counters atomicCounters
}

// atomicCounters is the internal, race-safe form of Counters.
type atomicCounters struct {
	stallCycles atomic.Int64
	dropped     atomic.Int64
	corrupted   atomic.Int64
	malformed   atomic.Int64
}

// New returns an injector for the spec, or nil when the spec is nil
// (no faults).
func New(spec *Spec, seed uint64) *Injector {
	if spec == nil {
		return nil
	}
	return &Injector{spec: spec, seed: seed, malformed: spec.only("malformed"),
		malSrc: rng.New(rng.Derive(seed, streamCorrupt))}
}

// Counters returns a snapshot of what the injector has done so far.
// Zero value on a nil injector. Safe to call while a simulation is
// stepping (each field is an independent atomic load).
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return Counters{
		StallCycles: in.counters.stallCycles.Load(),
		Dropped:     in.counters.dropped.Load(),
		Corrupted:   in.counters.corrupted.Load(),
		Malformed:   in.counters.malformed.Load(),
	}
}

// Spec returns the parsed spec (nil for a nil injector).
func (in *Injector) Spec() *Spec {
	if in == nil {
		return nil
	}
	return in.spec
}

// engineStall layers the spec's engine stalls (stall directives naming
// neither router nor port) on top of an inner congestion model, which
// may be nil.
type engineStall struct {
	in    *Injector
	inner engine.StallModel
	dirs  []Directive
}

// FlitStall implements engine.StallModel: the inner model's stall plus
// the longest injected window still open for flow at cycle.
func (s *engineStall) FlitStall(flow int, cycle int64) int {
	var base, inj int64
	if s.inner != nil {
		base = int64(s.inner.FlitStall(flow, cycle))
	}
	for _, d := range s.dirs {
		if d.Flow == -1 || d.Flow == flow {
			inj = max(inj, d.blocks(cycle))
		}
	}
	s.in.counters.stallCycles.Add(inj)
	if inj > permanentStall-base {
		return int(permanentStall)
	}
	return int(base + inj)
}

// WrapStall layers the spec's engine-mode stall directives on top of
// an existing stall model. With no such directives (or a nil
// injector) it returns inner unchanged, preserving the fast path.
func (in *Injector) WrapStall(inner engine.StallModel) engine.StallModel {
	if in == nil {
		return inner
	}
	var dirs []Directive
	for _, d := range in.spec.only("stall") {
		if d.Router == -1 && d.Port == -1 {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 {
		return inner
	}
	return &engineStall{in: in, inner: inner, dirs: dirs}
}

// malformedSource layers malformed-packet emission onto an inner
// traffic source.
type malformedSource struct {
	in    *Injector
	inner traffic.Source
	flows int
	dirs  []Directive
	src   *rng.Source
	buf   []flit.Packet
}

func (m *malformedSource) Arrivals(cycle int64, q traffic.QueueView) []flit.Packet {
	var base []flit.Packet
	if m.inner != nil {
		base = m.inner.Arrivals(cycle, q)
	}
	m.buf = append(m.buf[:0], base...)
	for _, d := range m.dirs {
		if !m.src.Bernoulli(d.P) {
			continue
		}
		var p flit.Packet
		switch d.MKind {
		case MalformedZeroLen:
			p = flit.Packet{Flow: 0, Length: 0}
		case MalformedBadFlow:
			p = flit.Packet{Flow: m.flows, Length: 4}
		default:
			// notail/duphead are flit-stream malformations; a
			// packet-granularity source cannot express them. They are
			// exercised by MalformedFlits at the flit level.
			continue
		}
		m.in.counters.malformed.Add(1)
		m.buf = append(m.buf, p)
	}
	return m.buf
}

// WrapSource layers the spec's malformed(...) directives onto a
// traffic source: malformed packets (zero-length, out-of-range flow
// id for the given flow count) are mixed into the arrival stream with
// the configured probability, to be rejected — not crashed on — at
// the injection point. Returns inner unchanged when no malformed
// directives apply.
func (in *Injector) WrapSource(inner traffic.Source, flows int) traffic.Source {
	if in == nil {
		return inner
	}
	var dirs []Directive
	for _, d := range in.spec.only("malformed") {
		if d.MKind == MalformedZeroLen || d.MKind == MalformedBadFlow {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 {
		return inner
	}
	return &malformedSource{
		in:    in,
		inner: inner,
		flows: flows,
		dirs:  dirs,
		src:   rng.New(rng.Derive(in.seed, streamMalformed)),
	}
}

// outputFault implements wormhole.OutputFault for one router output.
type outputFault struct {
	in      *Injector
	stalls  []Directive
	drops   []Directive
	corrupt []Directive
	dropSrc *rng.Source
	corrSrc *rng.Source
}

// Stalled implements wormhole.OutputFault: how many cycles the link
// is still stalled at cycle.
func (o *outputFault) Stalled(cycle int64) int64 { return longest(o.stalls, cycle) }

func (o *outputFault) Drop(f flit.Flit, cycle int64) bool {
	for _, d := range o.drops {
		if o.dropSrc.Bernoulli(d.P) {
			o.in.counters.dropped.Add(1)
			return true
		}
	}
	return false
}

func (o *outputFault) Corrupt(f flit.Flit, cycle int64) flit.Flit {
	for _, d := range o.corrupt {
		if !o.corrSrc.Bernoulli(d.P) {
			continue
		}
		// Mutate the flit kind: the classic wormhole wire faults are a
		// tail that arrives as a body (packet never closes), a body
		// that arrives as a tail (premature close), and a lost head
		// (body with no open packet).
		switch f.Kind {
		case flit.Body:
			f.Kind = flit.Tail
		case flit.Tail:
			f.Kind = flit.Body
		case flit.Head:
			f.Kind = flit.Body
		case flit.HeadTail:
			f.Kind = flit.Head
		}
		o.in.counters.corrupted.Add(1)
	}
	return f
}

// OutputFault returns the wormhole.OutputFault to install on output
// port of router (via Router.SetOutputFault), or nil when no
// directive targets it. Stall directives with router=-1 and an
// explicit port apply to that port on every router; drop/corrupt
// match on both router and port (-1 = wildcard).
func (in *Injector) OutputFault(router, port int) wormhole.OutputFault {
	if in == nil {
		return nil
	}
	match := func(d Directive) bool {
		if d.Router != -1 && d.Router != router {
			return false
		}
		if d.Port != -1 && d.Port != port {
			return false
		}
		return true
	}
	o := &outputFault{in: in}
	for _, d := range in.spec.only("stall") {
		// Engine-mode stalls (no router, no port) are handled by
		// WrapStall; a stall targets router outputs only when it names
		// a router or a port.
		if d.Router == -1 && d.Port == -1 {
			continue
		}
		if match(d) {
			o.stalls = append(o.stalls, d)
		}
	}
	for _, d := range in.spec.only("drop") {
		if match(d) {
			o.drops = append(o.drops, d)
		}
	}
	for _, d := range in.spec.only("corrupt") {
		if match(d) {
			o.corrupt = append(o.corrupt, d)
		}
	}
	if len(o.stalls) == 0 && len(o.drops) == 0 && len(o.corrupt) == 0 {
		return nil
	}
	o.dropSrc = rng.New(rng.Derive(in.seed, streamDrop, uint64(router), uint64(port)))
	o.corrSrc = rng.New(rng.Derive(in.seed, streamCorrupt, uint64(router), uint64(port)))
	return o
}

// FreezeFunc returns the freeze hook to install on router (via
// Router.SetFreeze): how many cycles the router is still frozen at a
// cycle. nil when no freeze directive targets the router.
func (in *Injector) FreezeFunc(router int) func(cycle int64) int64 {
	if in == nil {
		return nil
	}
	var dirs []Directive
	for _, d := range in.spec.only("freeze") {
		if d.Router == -1 || d.Router == router {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 {
		return nil
	}
	return func(cycle int64) int64 { return longest(dirs, cycle) }
}

// Malformed returns the malformed kind of the next packet offered at
// a network's injection front end, or "" to leave it well-formed: the
// spec's malformed(...) directives are tried in order and the first
// that fires wins, each malformed packet counted. The flit-level
// counterpart of WrapSource; a nil injector malforms nothing.
func (in *Injector) Malformed() string {
	if in == nil {
		return ""
	}
	for _, d := range in.malformed {
		if in.malSrc.Bernoulli(d.P) {
			in.counters.malformed.Add(1)
			return d.MKind
		}
	}
	return ""
}

// MalformedFlits materialises a deliberately malformed flit stream
// for a packet — the flit-level counterpart of WrapSource's malformed
// packets, used by the noc kernel's injection front ends (Malformed)
// and the validation tests to exercise the stream checks
// (check.FlitStream) and the routers' tolerance. kind is one of the
// Malformed* constants:
//
//	zerolen: an empty stream
//	badflow: a well-formed stream tagged with flow -1
//	notail:  the stream truncated before its tail
//	duphead: a second head flit spliced in mid-packet
func MalformedFlits(kind string, flow, length int, pktID int64) []flit.Flit {
	if length < 2 {
		length = 2
	}
	p := flit.Packet{Flow: flow, Length: length, ID: pktID}
	fs := p.Flits()
	switch kind {
	case MalformedZeroLen:
		return nil
	case MalformedBadFlow:
		for i := range fs {
			fs[i].Flow = -1
		}
	case MalformedNoTail:
		fs = fs[:len(fs)-1]
	case MalformedDupHead:
		mid := len(fs) / 2
		fs[mid].Kind = flit.Head
	}
	return fs
}

var (
	_ engine.StallModel    = (*engineStall)(nil)
	_ traffic.Source       = (*malformedSource)(nil)
	_ wormhole.OutputFault = (*outputFault)(nil)
)
