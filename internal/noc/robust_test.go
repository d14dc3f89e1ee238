package noc

import (
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/rng"
)

// TestCheckStreamsCleanOnMultiVCMesh runs nocsim's -vcs 2 -rate 0.06
// scenario through checkStreams: on a fault-free mesh, two packets
// from one source to one sink that travel on different VCs interleave
// at the ejection link, and the stream check must not mistake that
// for a wormhole violation.
func TestCheckStreamsCleanOnMultiVCMesh(t *testing.T) {
	m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 8, NewArb: newERR})
	if err != nil {
		t.Fatal(err)
	}
	rec := check.NewRecorder()
	streams := m.checkStreams(rec)
	inj := NewInjector(m, 0.06, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 16), rng.New(1))
	inj.MaxPending = 8
	for c := 0; c < 20_000; c++ {
		inj.Step()
		m.Step()
	}
	if !m.Drain(200_000) {
		t.Fatalf("mesh did not drain: %d in flight", m.InFlight())
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("fault-free run reported stream violations: %v", err)
	}
	for id, s := range streams {
		if n := s.OpenPackets(); n != 0 {
			t.Errorf("sink %d: %d packets open after the drain", id, n)
		}
	}
}

// TestMalformedPacketsOnMesh pins malformed(...) directives at the
// mesh's injection front ends: the injector counts every malformed
// packet, InFlight, Latency and the delivery counters never see one,
// the stream checks report them, and a badflow packet's flow id -1
// never indexes a delivery counter.
func TestMalformedPacketsOnMesh(t *testing.T) {
	run := func(spec string) (*Mesh, *fault.Injector, *check.Recorder, int64) {
		m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 4, NewArb: newERR})
		if err != nil {
			t.Fatal(err)
		}
		finj, rec, err := m.Protect(spec, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		// Three flits at least: a two-flit duphead stream is two heads,
		// whose worm never closes.
		inj := NewInjector(m, 0.05, Uniform{Nodes: m.Nodes()}, rng.NewUniform(3, 6), rng.New(3))
		for c := 0; c < 2_000; c++ {
			inj.Step()
			m.Step()
		}
		// Drain returns once no well-formed packet is in flight; the run
		// that follows lets every malformed flit reach its sink too.
		if !m.Drain(50_000) {
			t.Fatalf("%s: mesh did not drain: %d in flight", spec, m.InFlight())
		}
		m.Run(1_000)
		var sent int64
		for _, n := range inj.Injected {
			sent += n
		}
		return m, finj, rec, sent
	}
	sum := func(xs []int64) (n int64) {
		for _, x := range xs {
			n += x
		}
		return n
	}

	// Every packet is malformed: none is in flight, timed or counted
	// as delivered, though all their flits reach the sinks.
	m, inj, rec, sent := run("malformed(kind=badflow,p=1)")
	if mal := inj.Counters().Malformed; sent == 0 || mal != sent {
		t.Fatalf("badflow: %d malformed of %d sent", mal, sent)
	}
	if m.InFlight() != 0 || m.Latency.N() != 0 || sum(m.DeliveredPackets) != 0 || sum(m.DeliveredFlits) != 0 {
		t.Fatalf("badflow packets leaked into the accounting: %d in flight, %d latencies, %d packets, %d flits",
			m.InFlight(), m.Latency.N(), sum(m.DeliveredPackets), sum(m.DeliveredFlits))
	}
	if rec.Count() == 0 {
		t.Fatal("badflow: the stream checks reported nothing")
	}

	// Some packets carry a duplicate head: the rest are delivered and
	// timed as usual, and the checks flag the malformed ones.
	m, inj, rec, sent = run("malformed(kind=duphead,p=0.3)")
	mal := inj.Counters().Malformed
	if mal == 0 || mal == sent {
		t.Fatalf("duphead: %d malformed of %d sent", mal, sent)
	}
	if got := sum(m.DeliveredPackets); got != sent-mal || m.Latency.N() != got {
		t.Fatalf("duphead: %d packets delivered and %d timed, want the %d well-formed", got, m.Latency.N(), sent-mal)
	}
	if rec.Count() == 0 {
		t.Fatal("duphead: the stream checks reported nothing")
	}
}

// TestCheckedRunReportsMisdelivery: a route function that sends a
// packet to the wrong terminal must not deliver silently. The packet
// still drains — every flit leaves the network somewhere — so only
// the checked sinks can tell, and they report each misdelivered flit
// under its own invariant; the correct route reports nothing.
func TestCheckedRunReportsMisdelivery(t *testing.T) {
	run := func(route func(r, dst int) int) *check.Recorder {
		g := chainGraph()
		if route != nil {
			g.Route = route
		}
		m, err := NewGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		_, rec, err := m.Protect("", 1, true)
		if err != nil {
			t.Fatal(err)
		}
		m.Send(0, 2, 3)
		if !m.Drain(1_000) {
			t.Fatalf("packet 0->2 did not drain: %d in flight", m.InFlight())
		}
		return rec
	}
	if err := run(nil).Err(); err != nil {
		t.Fatalf("correct route reported violations: %v", err)
	}
	// Every packet runs down the chain to the sink past the last
	// router, terminal 4, whatever its destination.
	rec := run(func(int, int) int { return 0 })
	if rec.Count() != 3 {
		t.Fatalf("misdelivered 3-flit packet: %d violations, want 3: %v", rec.Count(), rec.Err())
	}
	for _, v := range rec.Violations() {
		if v.Invariant != check.InvDestination {
			t.Errorf("violation %v, want invariant %s", v, check.InvDestination)
		}
	}
}
