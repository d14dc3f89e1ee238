package trace

import (
	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/wormhole"
)

// headEnt tracks one sampled head flit queued in an input VC, from
// arrival until its grant promotes it to a hopState. Each (input port,
// VC) queues its sampled heads in a Ring reserved for bufFlits+2 of
// them (a VC cannot buffer more heads than flits, plus slack for a
// head granted but not yet departed). Grants happen in FIFO order per
// VC, so the front entry is always the next sampled head that can be
// granted; on the pathological overflow (malformed single-flit
// floods) the newest head is refused, deterministically.
type headEnt struct {
	pktID    int64
	arrive   int64
	eligible int64 // -1 until announced to the arbiter
}

// hopState is the in-progress hop span of a traced lock, indexed by
// the input (port, VC) the granted worm drains — at most one active
// lock ever drains a given input VC, so the slot is exclusive.
type hopState struct {
	pktID        int64
	arrive       int64
	eligible     int64
	grant        int64
	blockedSince int64
	contend      int32
	upGap        int32
	crdWait      int32
	blocked      uint8 // 0 = no open hard interval, else BlockReason+1
	active       bool
}

// RouterTrace records hop spans for one router. It implements
// wormhole.Tracer; the router serialises all calls (Compute is
// single-threaded per router, the interval closers run in the serial
// commit phase), so no locking is needed even under sharded stepping.
type RouterTrace struct {
	id    int32
	vcs   int
	s     Sampler
	ring  ring
	heads []queue.Ring[headEnt]
	hops  []hopState
	t     *Trace
}

var _ wormhole.Tracer = (*RouterTrace)(nil)

func newRouterTrace(id, ports, vcs, bufFlits int, t *Trace) *RouterTrace {
	rt := &RouterTrace{
		id:    int32(id),
		vcs:   vcs,
		s:     t.s,
		heads: make([]queue.Ring[headEnt], ports*vcs),
		hops:  make([]hopState, ports*vcs),
		t:     t,
	}
	rt.ring.init(routerRingCap, func() { t.dropped.Inc() })
	for i := range rt.heads {
		rt.heads[i].Reserve(bufFlits + 2)
	}
	return rt
}

// HeadArrived implements wormhole.Tracer.
func (rt *RouterTrace) HeadArrived(port, vc int, h flit.Flit, cycle int64) {
	if !rt.s.Sample(h.PktID) {
		return
	}
	q := &rt.heads[port*rt.vcs+vc]
	if q.Len() == q.Cap() {
		rt.t.dropped.Inc()
		return
	}
	q.Push(headEnt{pktID: h.PktID, arrive: cycle, eligible: -1})
}

// HeadEligible implements wormhole.Tracer. Only the FIFO-front packet
// of a VC can be announced, so a non-matching front means the
// announced packet is unsampled.
func (rt *RouterTrace) HeadEligible(port, vc int, pktID, cycle int64) {
	q := &rt.heads[port*rt.vcs+vc]
	if q.Len() == 0 {
		return
	}
	if e := q.At(0); e.pktID == pktID && e.eligible < 0 {
		e.eligible = cycle
	}
}

// Granted implements wormhole.Tracer. Grants consume heads in FIFO
// order per VC, so the sampled front entry matches exactly when the
// granted packet is sampled.
func (rt *RouterTrace) Granted(port, vc, outPort, outVC int, pktID, cycle int64) bool {
	idx := port*rt.vcs + vc
	q := &rt.heads[idx]
	if q.Len() == 0 || q.At(0).pktID != pktID {
		return false
	}
	e := q.Pop()
	st := &rt.hops[idx]
	if st.active {
		// A traced hop is still open on this input VC (possible only
		// with malformed flit streams); drop the new span.
		rt.t.dropped.Inc()
		return false
	}
	elig := e.eligible
	if elig < 0 {
		elig = e.arrive
	}
	*st = hopState{pktID: e.pktID, arrive: e.arrive, eligible: elig, grant: cycle, active: true}
	return true
}

// Blocked implements wormhole.Tracer. While a hard interval is open,
// further reports are ignored: a full-scan oracle visits quiesced
// outputs the work-list mode skips, and the guard makes those extra
// visits trace-neutral.
func (rt *RouterTrace) Blocked(port, vc int, reason wormhole.BlockReason, cycle int64) {
	st := &rt.hops[port*rt.vcs+vc]
	if !st.active || st.blocked != 0 {
		return
	}
	switch reason {
	case wormhole.BlockContend:
		st.contend++
	case wormhole.BlockArrival:
		st.upGap++
	case wormhole.BlockNoSpace:
		st.crdWait++
	case wormhole.BlockInputEmpty, wormhole.BlockNoCredit:
		st.blocked = uint8(reason) + 1
		st.blockedSince = cycle
	}
}

// Unblocked implements wormhole.Tracer, closing a matching open hard
// interval.
func (rt *RouterTrace) Unblocked(port, vc int, reason wormhole.BlockReason, cycle int64) {
	st := &rt.hops[port*rt.vcs+vc]
	if !st.active || st.blocked != uint8(reason)+1 {
		return
	}
	d := int32(cycle - st.blockedSince)
	if reason == wormhole.BlockInputEmpty {
		st.upGap += d
	} else {
		st.crdWait += d
	}
	st.blocked = 0
}

// Departed implements wormhole.Tracer, emitting the completed hop
// record and feeding the per-flow decomposition rollup.
func (rt *RouterTrace) Departed(inPort, inVC, outPort, outVC int, tail flit.Flit, cycle int64) {
	idx := inPort*rt.vcs + inVC
	st := &rt.hops[idx]
	if !st.active {
		return
	}
	if st.blocked != 0 {
		// Forwarding resumed without the closing event reaching us
		// (defensive; should not happen): close the interval here.
		rt.Unblocked(inPort, inVC, wormhole.BlockReason(st.blocked-1), cycle)
	}
	rt.ring.append(Record{
		Kind:     KindHop,
		InPort:   int8(inPort),
		InVC:     int8(inVC),
		OutPort:  int16(outPort),
		OutVC:    int16(outVC),
		Router:   rt.id,
		Flow:     int32(tail.Flow),
		Len:      int32(tail.Seq) + 1,
		Dst:      int32(tail.Dst),
		Contend:  st.contend,
		UpGap:    st.upGap,
		CrdWait:  st.crdWait,
		PktID:    st.pktID,
		Cycle:    cycle,
		Arrive:   st.arrive,
		Eligible: st.eligible,
		Grant:    st.grant,
	})
	rt.t.rollup.hop(tail.Flow, st)
	st.active = false
}
