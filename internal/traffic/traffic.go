// Package traffic provides the workload generators behind the
// paper's experiments: per-flow arrival processes (Bernoulli and
// Poisson packet arrivals, always-backlogged sources, on/off bursts,
// transient congestion windows) combined with the packet-length
// distributions of package rng, plus trace record/replay.
//
// The paper specifies rates as "packets per second"; the simulations
// here use packets per cycle — only rate ratios matter in every
// experiment (e.g. "the arrival rate into flow 3 is twice the rate of
// other flows").
package traffic

import (
	"repro/internal/flit"
	"repro/internal/rng"
)

// QueueView lets closed-loop sources observe queue state (the
// always-backlogged source tops queues up). Implemented by the
// engine.
type QueueView interface {
	// QueueLen returns the number of packets queued for flow,
	// including the packet currently in service.
	QueueLen(flow int) int
}

// Source generates packet arrivals. Arrivals is called once per cycle
// in increasing cycle order and returns the packets arriving at that
// cycle (nil for none). The returned slice is only valid until the
// next call.
type Source interface {
	Arrivals(cycle int64, q QueueView) []flit.Packet
}

// Quieter is an optional extension of Source for closed-loop sources
// whose arrivals depend on queue state alone. QuietAfter returning
// true promises that, on every cycle after cycle, Arrivals returns
// nothing and draws no randomness as long as no QueueLen changes, so
// a caller may skip those calls until a queue length changes. The
// promise may be asked for at any cycle; it covers only later calls.
//
// Sources that draw randomness every cycle (Bernoulli, Poisson,
// OnOff) cannot make the promise: skipping a call would shift their
// random streams. Replay and Recorder do not implement it either.
type Quieter interface {
	QuietAfter(cycle int64, q QueueView) bool
}

// Bernoulli emits, each cycle, one packet with probability Rate
// (packets/cycle) for its flow, with lengths drawn from Dist.
type Bernoulli struct {
	Flow int
	Rate float64
	Dist rng.LengthDist
	Src  *rng.Source
	buf  [1]flit.Packet
}

// NewBernoulli returns a Bernoulli arrival process for flow.
func NewBernoulli(flow int, rate float64, dist rng.LengthDist, src *rng.Source) *Bernoulli {
	if rate < 0 || rate > 1 {
		panic("traffic: Bernoulli rate outside [0,1]")
	}
	return &Bernoulli{Flow: flow, Rate: rate, Dist: dist, Src: src}
}

// Arrivals implements Source.
func (b *Bernoulli) Arrivals(cycle int64, q QueueView) []flit.Packet {
	if !b.Src.Bernoulli(b.Rate) {
		return nil
	}
	b.buf[0] = flit.Packet{Flow: b.Flow, Length: b.Dist.Draw(b.Src)}
	return b.buf[:]
}

// Poisson emits a Poisson-distributed number of packets per cycle
// with the given mean rate (packets/cycle), allowing rates above 1.
type Poisson struct {
	Flow int
	Rate float64
	Dist rng.LengthDist
	Src  *rng.Source
	buf  []flit.Packet
}

// NewPoisson returns a Poisson arrival process for flow.
func NewPoisson(flow int, rate float64, dist rng.LengthDist, src *rng.Source) *Poisson {
	if rate < 0 {
		panic("traffic: negative Poisson rate")
	}
	return &Poisson{Flow: flow, Rate: rate, Dist: dist, Src: src}
}

// Arrivals implements Source.
func (p *Poisson) Arrivals(cycle int64, q QueueView) []flit.Packet {
	k := p.Src.Poisson(p.Rate)
	if k == 0 {
		return nil
	}
	p.buf = p.buf[:0]
	for i := 0; i < k; i++ {
		p.buf = append(p.buf, flit.Packet{Flow: p.Flow, Length: p.Dist.Draw(p.Src)})
	}
	return p.buf
}

// Backlogged keeps its flow's queue topped up to Depth packets, so
// the flow is active for the entire run — the regime of the Figure 4
// and Figure 6 measurements ("we ensure that all the flows are
// active").
type Backlogged struct {
	Flow  int
	Depth int
	Dist  rng.LengthDist
	Src   *rng.Source
	buf   []flit.Packet
}

// NewBacklogged returns an always-backlogged source for flow.
func NewBacklogged(flow, depth int, dist rng.LengthDist, src *rng.Source) *Backlogged {
	if depth < 1 {
		panic("traffic: Backlogged depth < 1")
	}
	return &Backlogged{Flow: flow, Depth: depth, Dist: dist, Src: src}
}

// Arrivals implements Source.
func (b *Backlogged) Arrivals(cycle int64, q QueueView) []flit.Packet {
	need := b.Depth - q.QueueLen(b.Flow)
	if need <= 0 {
		return nil
	}
	b.buf = b.buf[:0]
	for i := 0; i < need; i++ {
		b.buf = append(b.buf, flit.Packet{Flow: b.Flow, Length: b.Dist.Draw(b.Src)})
	}
	return b.buf
}

// QuietAfter implements Quieter: a full queue stays full until its
// length changes.
func (b *Backlogged) QuietAfter(cycle int64, q QueueView) bool {
	return q.QueueLen(b.Flow) >= b.Depth
}

// quietFlow implements oneFlow: the promise reads only Flow's queue.
func (b *Backlogged) quietFlow() int { return b.Flow }

// OnOff is a two-state bursty source: in the On state it emits
// packets at OnRate per cycle (Bernoulli); state dwell times are
// geometric with the given mean cycles. It models the bursty sources
// FCFS fails to isolate (Section 2).
type OnOff struct {
	Flow            int
	OnRate          float64
	MeanOn, MeanOff float64
	Dist            rng.LengthDist
	Src             *rng.Source
	on              bool
	buf             [1]flit.Packet
}

// NewOnOff returns an on/off source starting in the Off state.
func NewOnOff(flow int, onRate, meanOn, meanOff float64, dist rng.LengthDist, src *rng.Source) *OnOff {
	if onRate < 0 || onRate > 1 || meanOn < 1 || meanOff < 1 {
		panic("traffic: invalid OnOff parameters")
	}
	return &OnOff{Flow: flow, OnRate: onRate, MeanOn: meanOn, MeanOff: meanOff, Dist: dist, Src: src}
}

// Arrivals implements Source.
func (o *OnOff) Arrivals(cycle int64, q QueueView) []flit.Packet {
	// Geometric dwell: leave the current state with prob 1/mean.
	if o.on {
		if o.Src.Bernoulli(1 / o.MeanOn) {
			o.on = false
		}
	} else {
		if o.Src.Bernoulli(1 / o.MeanOff) {
			o.on = true
		}
	}
	if !o.on || !o.Src.Bernoulli(o.OnRate) {
		return nil
	}
	o.buf[0] = flit.Packet{Flow: o.Flow, Length: o.Dist.Draw(o.Src)}
	return o.buf[:]
}

// Window gates an inner source to the cycle interval [From, To): the
// transient-congestion shape of Figure 5, where injection runs for
// 10,000 cycles and then halts while the queues drain.
type Window struct {
	Inner    Source
	From, To int64
}

// NewWindow returns a windowed source.
func NewWindow(inner Source, from, to int64) *Window {
	if to < from {
		panic("traffic: Window with to < from")
	}
	return &Window{Inner: inner, From: from, To: to}
}

// Arrivals implements Source.
func (w *Window) Arrivals(cycle int64, q QueueView) []flit.Packet {
	if cycle < w.From || cycle >= w.To {
		return nil
	}
	return w.Inner.Arrivals(cycle, q)
}

// QuietAfter implements Quieter: quiet once the window has closed,
// or whenever the inner source promises quiet.
func (w *Window) QuietAfter(cycle int64, q QueueView) bool {
	if cycle+1 >= w.To {
		return true
	}
	in, ok := w.Inner.(Quieter)
	return ok && in.QuietAfter(cycle, q)
}

// oneFlow is implemented by a Quieter whose promise reads the queue
// of one flow only, the flow quietFlow returns.
type oneFlow interface{ quietFlow() int }

// changeCounter is the optional side of a QueueView that counts the
// events that can change a queue length and names the flow of the
// latest (engine.Engine.QueueChanges).
type changeCounter interface {
	QueueChanges() (n uint64, last int)
}

// Multi combines several sources into one. Sources must not change
// once Multi has been polled.
//
// Multi keeps its own record of its promise. When the QueueView counts
// its changes (changeCounter) and exactly one change has happened
// since Multi last promised quiet, only the children whose promise
// reads the changed flow can emit: the single-flow children of that
// flow (Backlogged) and every child that may read any flow. Arrivals
// polls just those, in index order, so the packets and the random
// draws are those of a poll of every child, and the QuietAfter that
// follows asks just those again, plus the children of the flows the
// returned packets changed. In every other case both visit every
// child.
type Multi struct {
	Sources []Source
	buf     []flit.Packet
	// out is what the last partial poll returned.
	out []flit.Packet

	// The index, built on the first partial poll: byFlow[f] lists in
	// index order the children whose promise reads flow f alone,
	// anyFlow every other child.
	indexed bool
	byFlow  [][]int
	anyFlow []int

	// The record. promised: QuietAfter last answered true, at change
	// count mark. partial: the last Arrivals polled only flow polled's
	// children and anyFlow, at change count mark.
	promised, partial bool
	mark              uint64
	polled            int
}

// NewMulti returns a source combining the given sources.
func NewMulti(sources ...Source) *Multi { return &Multi{Sources: sources} }

// Arrivals implements Source.
func (m *Multi) Arrivals(cycle int64, q QueueView) []flit.Packet {
	if cc, ok := q.(changeCounter); ok && m.promised {
		if n, last := cc.QueueChanges(); n == m.mark+1 {
			m.out = m.pollFlow(cycle, q, last)
			m.promised, m.partial, m.mark, m.polled = false, true, n, last
			return m.out
		}
	}
	m.promised, m.partial = false, false
	m.buf = m.buf[:0]
	for _, s := range m.Sources {
		m.buf = append(m.buf, s.Arrivals(cycle, q)...)
	}
	return m.result()
}

func (m *Multi) result() []flit.Packet {
	if len(m.buf) == 0 {
		return nil
	}
	return m.buf
}

// pollFlow returns the arrivals of flow f's children and of anyFlow,
// merged in index order. A lone child's packets are returned as they
// are: they stay valid until its next call, which only a later call
// of Multi makes.
func (m *Multi) pollFlow(cycle int64, q QueueView, f int) []flit.Packet {
	if !m.indexed {
		m.index()
	}
	own, every := m.children(f), m.anyFlow
	if len(own) == 1 && len(every) == 0 {
		return m.Sources[own[0]].Arrivals(cycle, q)
	}
	m.buf = m.buf[:0]
	for len(own)+len(every) > 0 {
		var i int
		if len(every) == 0 || len(own) > 0 && own[0] < every[0] {
			i, own = own[0], own[1:]
		} else {
			i, every = every[0], every[1:]
		}
		m.buf = append(m.buf, m.Sources[i].Arrivals(cycle, q)...)
	}
	return m.result()
}

func (m *Multi) index() {
	m.indexed = true
	for i, s := range m.Sources {
		o, ok := s.(oneFlow)
		if !ok || o.quietFlow() < 0 {
			m.anyFlow = append(m.anyFlow, i)
			continue
		}
		f := o.quietFlow()
		for len(m.byFlow) <= f {
			m.byFlow = append(m.byFlow, nil)
		}
		m.byFlow[f] = append(m.byFlow[f], i)
	}
}

// children returns the single-flow children of flow f.
func (m *Multi) children(f int) []int {
	if f < 0 || f >= len(m.byFlow) {
		return nil
	}
	return m.byFlow[f]
}

// QuietAfter implements Quieter: quiet when every child is.
func (m *Multi) QuietAfter(cycle int64, q QueueView) bool {
	var n uint64
	cc, counted := q.(changeCounter)
	if counted {
		n, _ = cc.QueueChanges()
	}
	// After a partial poll the changes since the promise are the one
	// it polled for plus one per packet it returned (a rejected
	// packet is counted too); any other count means something else
	// changed a queue, and every child is asked.
	partial := m.partial && counted && n == m.mark+uint64(len(m.out))
	m.promised, m.partial = false, false
	if partial {
		if !m.quiet(m.children(m.polled), cycle, q) || !m.quiet(m.anyFlow, cycle, q) {
			return false
		}
		for i, p := range m.out {
			if p.Flow == m.polled || i > 0 && p.Flow == m.out[i-1].Flow {
				continue
			}
			if !m.quiet(m.children(p.Flow), cycle, q) {
				return false
			}
		}
	} else {
		for _, s := range m.Sources {
			if in, ok := s.(Quieter); !ok || !in.QuietAfter(cycle, q) {
				return false
			}
		}
	}
	m.promised, m.mark = true, n
	return true
}

// quiet reports whether every child in idx promises quiet. Only a
// Multi whose children all promised quiet polls partially, so each
// is a Quieter.
func (m *Multi) quiet(idx []int, cycle int64, q QueueView) bool {
	for _, i := range idx {
		if !m.Sources[i].(Quieter).QuietAfter(cycle, q) {
			return false
		}
	}
	return true
}
