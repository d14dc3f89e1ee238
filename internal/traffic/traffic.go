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

// Multi combines several sources into one.
type Multi struct {
	Sources []Source
	buf     []flit.Packet
}

// NewMulti returns a source combining the given sources.
func NewMulti(sources ...Source) *Multi { return &Multi{Sources: sources} }

// Arrivals implements Source.
func (m *Multi) Arrivals(cycle int64, q QueueView) []flit.Packet {
	m.buf = m.buf[:0]
	for _, s := range m.Sources {
		m.buf = append(m.buf, s.Arrivals(cycle, q)...)
	}
	if len(m.buf) == 0 {
		return nil
	}
	return m.buf
}

// QuietAfter implements Quieter: quiet when every child is.
func (m *Multi) QuietAfter(cycle int64, q QueueView) bool {
	for _, s := range m.Sources {
		if in, ok := s.(Quieter); !ok || !in.QuietAfter(cycle, q) {
			return false
		}
	}
	return true
}
