package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/sched"
	"repro/internal/wormhole"
)

// Graph describes a wormhole network as an explicit router graph:
// NewGraph builds any topology from one, and NewMesh builds the mesh
// and torus on the same builder.
type Graph struct {
	// Routers is the router count (ids 0..Routers-1); each has Ports
	// ports.
	Routers, Ports int
	// Links are the directed router-to-router channels.
	Links []Link
	// Terminals are the network's end points, the node ids of Send: a
	// packet from terminal src to terminal dst enters at src's
	// injection port, carries flow id src, and leaves through dst's
	// ejection port.
	Terminals []Terminal
	// Route returns the output port router r forwards a packet for
	// terminal dst through.
	Route func(r, dst int) int
	// OutVC, if set, returns router r's output VC choice (see
	// wormhole.Config.OutVC); nil keeps the VC hop to hop.
	OutVC func(r int) func(outPort int, head flit.Flit, inPort, inVC int) int
	// NewArb returns the constructor of router r's output arbiters,
	// which must satisfy sched.HeadOfLineArb (ERR, PBRR, WRR).
	NewArb func(r int) func() sched.Scheduler
	// VCs, BufFlits, SharedBufFlits and SharedBufCap size every
	// router's input buffers, as in Config.
	VCs, BufFlits, SharedBufFlits, SharedBufCap int
	// InjectVCs limits injection to VCs [0, InjectVCs) (0 = every VC);
	// a terminal's successive packets rotate across them.
	InjectVCs int
}

// Link is a directed channel from output port Out of router From to
// input port In of router To.
type Link struct{ From, Out, To, In int }

// Port names port Port of router Router.
type Port struct{ Router, Port int }

// Terminal is one end point of a network: it injects into input port
// Inject (Inject.Port = -1: the terminal only receives) and ejects from
// output port Eject. The two may sit on different routers: an omega
// network's terminal enters at the first stage and leaves at the last.
// With Drain set, the ejection port drains through a bounded sink of
// DrainFlits flits per VC that passes one flit on in each cycle Drain
// returns true, stepped after each commit: the downstream congestion
// of cmd/switchsim's -drain.
type Terminal struct {
	Inject, Eject Port
	Drain         func(cycle int64) bool
	DrainFlits    int
}

// NewGraph builds g's network. A graph network commits as one tile:
// its routers share one commit domain, so a worker pool (SetPool)
// never changes its stepping, and the active set, event core,
// reference mode, faults, checks, watchdog and flight recorder apply
// to it exactly as to a mesh. A terminal's injection port must be its
// own: no link and no other terminal may feed it, since a refused
// injection waits for that port alone to drain (Mesh.Step).
func NewGraph(g Graph) (*Mesh, error) {
	fed := make(map[Port]bool, len(g.Links))
	for _, l := range g.Links {
		fed[Port{l.To, l.In}] = true
	}
	for t, term := range g.Terminals {
		at := term.Inject
		if at.Port < 0 {
			continue
		}
		if fed[at] {
			return nil, fmt.Errorf("noc: terminal %d injects into router %d port %d, which a link or another terminal also feeds", t, at.Router, at.Port)
		}
		fed[at] = true
	}
	order := make([]int32, g.Routers)
	for i := range order {
		order[i] = int32(i)
	}
	return build(g, order, []int32{0, int32(g.Routers)})
}

// build constructs g's network with its routers laid out in the given
// physical order (order[p] is the router at physical id p) and split
// into the commit tiles [tileStart[t], tileStart[t+1]). All per-router
// state is carved out of one arena in physical order.
func build(g Graph, order, tileStart []int32) (*Mesh, error) {
	n, nt := g.Routers, len(g.Terminals)
	numTiles := len(tileStart) - 1
	injVCs := g.InjectVCs
	if injVCs == 0 {
		injVCs = g.VCs
	}
	base := wormhole.Config{
		Ports:          g.Ports,
		VCs:            g.VCs,
		BufFlits:       g.BufFlits,
		SharedBufFlits: g.SharedBufFlits,
		SharedBufCap:   g.SharedBufCap,
		Route:          g.Route,
	}
	arena := wormhole.NewArena(base, n)
	m := &Mesh{
		routers:          make([]*wormhole.Router, n),
		sinks:            make([]*wormhole.Sink, nt),
		inj:              make([]injState, nt),
		vcs:              g.VCs,
		bufFlits:         g.BufFlits,
		injVCs:           injVCs,
		shared:           g.SharedBufFlits > 0,
		inflight:         make(map[int64]pktMeta),
		activeR:          newIDSet(n),
		activeI:          newIDSet(nt),
		fx:               make([]wormhole.Effects, n),
		allIDs:           make([]int, n),
		physR:            make([]*wormhole.Router, n),
		numTiles:         numTiles,
		tileStart:        tileStart,
		tileOff:          make([]int32, numTiles+1),
		rest:             make([]wormhole.Effects, numTiles),
		arenaBytes:       arena.Bytes(),
		DeliveredFlits:   make([]int64, nt),
		DeliveredPackets: make([]int64, nt),
	}
	for t := 0; t < numTiles; t++ {
		for pid := int(tileStart[t]); pid < int(tileStart[t+1]); pid++ {
			id := int(order[pid])
			m.allIDs[pid] = pid
			rcfg := base
			rcfg.NewArb = g.NewArb(id)
			if g.OutVC != nil {
				rcfg.OutVC = g.OutVC(id)
			}
			r, err := arena.NewRouter(id, rcfg)
			if err != nil {
				return nil, err
			}
			r.SetDomain(t)
			r.SetOnActive(func() {
				if m.parCommit {
					m.activeR.addAtomic(pid)
				} else {
					m.activeR.add(pid)
				}
			})
			m.physR[pid] = r
			m.routers[id] = r
		}
	}
	for _, l := range g.Links {
		wormhole.Connect(m.routers[l.From], l.Out, m.routers[l.To], l.In)
	}
	for t, term := range g.Terminals {
		m.inj[t].port = term.Inject.Port
		if term.Inject.Port >= 0 {
			r := m.routers[term.Inject.Router]
			m.inj[t].r = r
			r.SetCreditReturn(term.Inject.Port, func(int, int64) { m.wake(t) })
		}
		r, port := m.routers[term.Eject.Router], term.Eject.Port
		var sink *wormhole.Sink
		if term.Drain != nil {
			ss := wormhole.NewStallSink(term.DrainFlits, term.Drain)
			wormhole.ConnectEndpoint(r, port, ss)
			ss.Bind(r, port)
			m.drains = append(m.drains, ss)
			sink = &ss.Inner
		} else {
			sink = &wormhole.Sink{}
			wormhole.ConnectEndpoint(r, port, sink)
		}
		sink.OnTail = m.onTail
		sink.OnFlit = m.onFlit
		m.sinks[t] = sink
	}
	return m, nil
}
