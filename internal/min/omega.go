// Package min builds a multistage interconnection network (an omega
// network — the class of fabric inside the IBM SP2-style switches the
// paper's introduction cites) out of the wormhole routers of package
// wormhole: log2(N) stages of 2x2 switches, perfect-shuffle wiring,
// destination-tag routing, per-output-queue packet arbitration by a
// pluggable discipline (ERR by default), and per-terminal injection
// and ejection. The network is feed-forward, hence trivially
// deadlock-free, which makes it a clean fabric for studying pure
// arbitration fairness: every merge point is a 2-way contest between
// flows, exactly the paper's scheduling problem.
package min

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wormhole"
)

// Config configures an omega network.
type Config struct {
	// Terminals is the number of end points; must be a power of two,
	// >= 4.
	Terminals int
	// VCs is the number of virtual channels per switch port.
	VCs int
	// BufFlits is the input VC buffer depth of each switch.
	BufFlits int
	// NewArb constructs each switch output arbiter (must satisfy
	// sched.HeadOfLineArb).
	NewArb func() sched.Scheduler
}

// injState is a per-terminal injection front end (one flit per
// cycle).
type injState struct {
	queue []flit.Packet
	flits []flit.Flit
	next  int
	vc    int
	nxtVC int
}

// Network is an N-terminal omega network of 2x2 wormhole switches.
type Network struct {
	cfg    Config
	n      int // log2(Terminals)
	stages [][]*wormhole.Router
	sinks  []*wormhole.Sink
	inj    []injState
	cycle  int64
	nextID int64

	injectTime map[int64]int64

	// Latency accumulates end-to-end packet latencies.
	Latency stats.Welford
	// DeliveredFlits / DeliveredPackets count ejections per source
	// terminal.
	DeliveredFlits   []int64
	DeliveredPackets []int64
}

// NewOmega validates cfg and builds the network.
func NewOmega(cfg Config) (*Network, error) {
	N := cfg.Terminals
	if N < 4 || N&(N-1) != 0 {
		return nil, fmt.Errorf("min: terminals must be a power of two >= 4, got %d", N)
	}
	if cfg.NewArb == nil {
		return nil, fmt.Errorf("min: NewArb is required")
	}
	n := bits.TrailingZeros(uint(N))
	net := &Network{
		cfg:              cfg,
		n:                n,
		stages:           make([][]*wormhole.Router, n),
		sinks:            make([]*wormhole.Sink, N),
		inj:              make([]injState, N),
		injectTime:       make(map[int64]int64),
		DeliveredFlits:   make([]int64, N),
		DeliveredPackets: make([]int64, N),
	}
	// Build the switches: n stages of N/2 2x2 routers. At stage s the
	// output port is bit (n-1-s) of the destination terminal.
	for s := 0; s < n; s++ {
		net.stages[s] = make([]*wormhole.Router, N/2)
		shift := n - 1 - s
		for j := 0; j < N/2; j++ {
			r, err := wormhole.NewRouter(s*N/2+j, wormhole.Config{
				Ports:    2,
				VCs:      cfg.VCs,
				BufFlits: cfg.BufFlits,
				NewArb:   cfg.NewArb,
				Route:    func(_, dst int) int { return (dst >> shift) & 1 },
			})
			if err != nil {
				return nil, err
			}
			net.stages[s][j] = r
		}
	}
	// Wire the stages with the perfect shuffle: output line l of one
	// stage feeds input line shuffle(l) of the next, where
	// shuffle(l) rotates l's bits left by one.
	for s := 0; s+1 < n; s++ {
		for l := 0; l < N; l++ {
			next := net.shuffle(l)
			wormhole.Connect(
				net.stages[s][l/2], l%2,
				net.stages[s+1][next/2], next%2,
			)
		}
	}
	// Last stage: output line d ejects at terminal d.
	for l := 0; l < N; l++ {
		sink := &wormhole.Sink{}
		sink.OnTail = net.onTail
		sink.OnFlit = net.onFlit
		net.sinks[l] = sink
		wormhole.ConnectEndpoint(net.stages[n-1][l/2], l%2, sink)
	}
	return net, nil
}

// shuffle rotates a line number's n bits left by one (the perfect
// shuffle).
func (net *Network) shuffle(l int) int {
	N := net.cfg.Terminals
	return ((l << 1) | (l >> (net.n - 1))) & (N - 1)
}

// Terminals returns the terminal count.
func (net *Network) Terminals() int { return net.cfg.Terminals }

// Stages returns the number of switch stages.
func (net *Network) Stages() int { return net.n }

// Cycle returns the current cycle.
func (net *Network) Cycle() int64 { return net.cycle }

func (net *Network) onFlit(f flit.Flit, vc int, cycle int64) {
	net.DeliveredFlits[f.Flow]++
}

func (net *Network) onTail(f flit.Flit, cycle int64) {
	net.DeliveredPackets[f.Flow]++
	if t0, ok := net.injectTime[f.PktID]; ok {
		net.Latency.Add(float64(cycle - t0 + 1))
		delete(net.injectTime, f.PktID)
	}
}

// Send queues a packet from terminal src to terminal dst. Flow is
// overwritten with src for per-source accounting.
func (net *Network) Send(src, dst, length int) {
	N := net.cfg.Terminals
	if src < 0 || src >= N || dst < 0 || dst >= N {
		panic("min: terminal out of range")
	}
	if length < 1 {
		panic("min: packet length < 1")
	}
	id := net.nextID
	net.nextID++
	net.injectTime[id] = net.cycle
	net.inj[src].queue = append(net.inj[src].queue,
		flit.Packet{Flow: src, Length: length, Dst: dst, ID: id})
}

// PendingAt returns queued or mid-injection packets at terminal src.
func (net *Network) PendingAt(src int) int {
	st := &net.inj[src]
	n := len(st.queue)
	if st.flits != nil {
		n++
	}
	return n
}

// InFlight returns packets not yet fully delivered.
func (net *Network) InFlight() int { return len(net.injectTime) }

// Step advances the network by one cycle.
func (net *Network) Step() {
	// Injection: terminal t feeds stage-0 input line t. Destination-
	// tag routing through an omega network requires the *shuffled*
	// line at stage 0, i.e. packets enter after an initial shuffle:
	// inject at line shuffle(t).
	for t := range net.inj {
		st := &net.inj[t]
		if st.flits == nil && len(st.queue) > 0 {
			p := st.queue[0]
			st.queue = st.queue[1:]
			st.flits = p.Flits()
			st.next = 0
			st.vc = st.nxtVC
			st.nxtVC = (st.nxtVC + 1) % net.cfg.VCs
		}
		if st.flits != nil {
			line := net.shuffle(t)
			if net.stages[0][line/2].Inject(line%2, st.vc, st.flits[st.next], net.cycle) {
				st.next++
				if st.next == len(st.flits) {
					st.flits = nil
				}
			}
		}
	}
	for _, stage := range net.stages {
		for _, r := range stage {
			r.Step(net.cycle)
		}
	}
	net.cycle++
}

// Run advances the network by n cycles.
func (net *Network) Run(n int64) {
	for i := int64(0); i < n; i++ {
		net.Step()
	}
}

// Drain steps until all in-flight packets are delivered or maxCycles
// elapse.
func (net *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if net.InFlight() == 0 {
			return true
		}
		net.Step()
	}
	return net.InFlight() == 0
}

// SpreadOfDelivered returns max-min of per-source delivered flits
// over the given set of sources (fairness summary).
func (net *Network) SpreadOfDelivered(sources []int) int64 {
	if len(sources) == 0 {
		return 0
	}
	lo, hi := net.DeliveredFlits[sources[0]], net.DeliveredFlits[sources[0]]
	for _, s := range sources[1:] {
		v := net.DeliveredFlits[s]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
