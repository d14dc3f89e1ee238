package wormhole

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/sched"
)

// testConfig: Route(dst) = dst, i.e. the destination id names the
// output port directly.
func testConfig(ports, vcs, buf int) Config {
	return Config{
		Ports:    ports,
		VCs:      vcs,
		BufFlits: buf,
		NewArb:   func() sched.Scheduler { return core.New() },
		Route:    func(_, dst int) int { return dst },
	}
}

// injectPacket pushes all flits of a packet into (port, vc) at the
// given cycle, failing the test on buffer overflow.
func injectPacket(t *testing.T, r *Router, port, vc int, p flit.Packet, cycle int64) {
	t.Helper()
	for _, f := range p.Flits() {
		if !r.Inject(port, vc, f, cycle) {
			t.Fatalf("input buffer full injecting %v", f)
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(0, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	// A bad dimension is named with its value, negative ones included.
	for _, c := range []struct {
		ports, vcs, buf int
		want            string
	}{
		{0, 1, 4, "Ports 0"},
		{2, 0, 4, "VCs 0"},
		{2, -1, 4, "VCs -1"},
		{2, MaxVCs + 1, 4, "VCs 65"},
		{2, 1, 0, "BufFlits 0"},
		{2, 1, -3, "BufFlits -3"},
	} {
		_, err := NewRouter(0, testConfig(c.ports, c.vcs, c.buf))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%d ports, %d VCs, %d flits: error %v, want one naming %q", c.ports, c.vcs, c.buf, err, c.want)
		}
	}
	cfg := testConfig(2, 1, 4)
	cfg.NewArb = func() sched.Scheduler { return sched.NewDRR(64, nil) }
	if _, err := NewRouter(0, cfg); err == nil {
		t.Error("length-aware arbiter accepted")
	}
	cfg.NewArb = func() sched.Scheduler { return sched.NewFCFS() }
	if _, err := NewRouter(0, cfg); err == nil {
		t.Error("FCFS (not head-of-line safe) accepted")
	}
	cfg.NewArb = func() sched.Scheduler { return sched.NewPBRR() }
	if _, err := NewRouter(0, cfg); err != nil {
		t.Errorf("PBRR rejected: %v", err)
	}
}

func TestSingleRouterForwardsPacket(t *testing.T) {
	r, err := NewRouter(0, testConfig(2, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{}
	var flitCycles []int64
	sink.OnFlit = func(f flit.Flit, vc int, cycle int64) { flitCycles = append(flitCycles, cycle) }
	ConnectEndpoint(r, 0, sink)

	injectPacket(t, r, 1, 0, flit.Packet{Flow: 0, Length: 3, Dst: 0}, 0)
	for c := int64(0); c < 10; c++ {
		r.Step(c)
	}
	if sink.Flits != 3 || sink.Packets != 1 {
		t.Fatalf("sink saw %d flits / %d packets, want 3/1", sink.Flits, sink.Packets)
	}
	// Grant at cycle 0, flits forwarded at cycles 1, 2, 3.
	want := []int64{1, 2, 3}
	for i, w := range want {
		if flitCycles[i] != w {
			t.Errorf("flit %d at cycle %d, want %d", i, flitCycles[i], w)
		}
	}
}

func TestOccupancyBilledToArbiter(t *testing.T) {
	cfg := testConfig(2, 1, 8)
	var errArb *core.ERR
	cfg.NewArb = func() sched.Scheduler {
		a := core.New()
		if errArb == nil {
			errArb = a // capture the port-0 arbiter (created first)
		}
		return a
	}
	r, err := NewRouter(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &core.TraceRecorder{}
	errArb.SetTrace(rec)
	// Downstream drains only every 2nd cycle: occupancy ~2x length.
	ss := NewStallSink(2, func(cycle int64) bool { return cycle%2 == 0 })
	ConnectEndpoint(r, 0, ss)
	ss.Bind(r, 0)

	injectPacket(t, r, 1, 0, flit.Packet{Flow: 0, Length: 4, Dst: 0}, 0)
	for c := int64(0); c < 30; c++ {
		r.Step(c)
		ss.Step(c)
	}
	if ss.Inner.Packets != 1 {
		t.Fatalf("packet not delivered (got %d)", ss.Inner.Packets)
	}
	if len(rec.Events) != 1 {
		t.Fatalf("arbiter saw %d completions, want 1", len(rec.Events))
	}
	occ := rec.Events[0].Sent // ERR bills Sent = occupancy cycles
	if occ <= 4 {
		t.Errorf("occupancy %d should exceed packet length 4 under stalls", occ)
	}
}

func TestCreditBackpressure(t *testing.T) {
	// Downstream sink never drains: only BufFlits flits may leave the
	// router, then the worm stalls.
	r, err := NewRouter(0, testConfig(2, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStallSink(2, func(int64) bool { return false })
	ConnectEndpoint(r, 0, ss)
	ss.Bind(r, 0)
	injectPacket(t, r, 1, 0, flit.Packet{Flow: 0, Length: 6, Dst: 0}, 0)
	for c := int64(0); c < 20; c++ {
		r.Step(c)
		ss.Step(c)
	}
	if got := len(ss.buffered); got != 2 {
		t.Errorf("%d flits crossed the link, want exactly 2 (credit limit)", got)
	}
}

func TestTwoFlowContentionERRFairInOccupancy(t *testing.T) {
	// Inputs 1 and 2 both send to output 0. Flow on input 2 sends
	// double-length packets; ERR must equalise occupancy, i.e. both
	// inputs get ~equal output cycles.
	cfg := testConfig(3, 1, 16)
	r, err := NewRouter(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{}
	served := map[int]int64{}
	sink.OnFlit = func(f flit.Flit, vc int, cycle int64) { served[f.Flow]++ }
	ConnectEndpoint(r, 0, sink)

	// Keep both inputs topped up.
	next := []int{0, 0}
	for c := int64(0); c < 60000; c++ {
		for in := 1; in <= 2; in++ {
			length := 4
			if in == 2 {
				length = 8
			}
			if r.InputFree(in, 0) >= length {
				injectPacket(t, r, in, 0, flit.Packet{Flow: in, Length: length, Dst: 0}, c)
				next[in-1]++
			}
		}
		r.Step(c)
	}
	ratio := float64(served[2]) / float64(served[1])
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("flit ratio in2/in1 = %.3f, want ~1.0 (served %d vs %d)",
			ratio, served[2], served[1])
	}
}

func TestTwoRoutersMultiHop(t *testing.T) {
	// r0 port 1 -> r1 port 1; destination 0 ejects locally at each
	// router's port 0. A packet injected at r0 input 2 with dst
	// "remote" must traverse both routers.
	mkCfg := func(remotePort int) Config {
		c := testConfig(3, 2, 8)
		c.Route = func(_, dst int) int {
			if dst == 99 {
				return remotePort
			}
			return 0
		}
		return c
	}
	r0, err := NewRouter(0, mkCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// At r1 everything ejects at port 0.
	r1, err := NewRouter(1, mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	// r1 routes dst 99 to port 0 too (it is the last hop).
	r1.cfg.Route = func(_, dst int) int { return 0 }

	Connect(r0, 1, r1, 1)
	sink0 := &Sink{}
	sink1 := &Sink{}
	ConnectEndpoint(r0, 0, sink0)
	ConnectEndpoint(r1, 0, sink1)
	ConnectEndpoint(r0, 2, &Sink{})
	ConnectEndpoint(r1, 2, &Sink{})

	var deliveredAt int64 = -1
	sink1.OnTail = func(f flit.Flit, cycle int64) { deliveredAt = cycle }

	injectPacket(t, r0, 2, 1, flit.Packet{Flow: 7, Length: 5, Dst: 99}, 0)
	for c := int64(0); c < 50; c++ {
		r0.Step(c)
		r1.Step(c)
	}
	if sink1.Packets != 1 {
		t.Fatalf("packet not delivered at r1 (sink1 packets=%d, sink0=%d)", sink1.Packets, sink0.Packets)
	}
	if deliveredAt < 5 {
		t.Errorf("tail delivered at cycle %d, impossibly fast for 2 hops of a 5-flit packet", deliveredAt)
	}
	// Credit conservation: r0's credits toward r1 must be restored.
	for v := 0; v < 2; v++ {
		if r0.crd[1*r0.cfg.VCs+v] != r1.cfg.BufFlits {
			t.Errorf("vc %d credits %d, want %d", v, r0.crd[1*r0.cfg.VCs+v], r1.cfg.BufFlits)
		}
	}
}

func TestHeadOfLineBlockingAcrossOutputs(t *testing.T) {
	// Same input VC holds a packet to output 0 then one to output 1:
	// the second must wait for the first (HoL), then be announced to
	// output 1's arbiter.
	r, err := NewRouter(0, testConfig(3, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := &Sink{}, &Sink{}
	ConnectEndpoint(r, 0, s0)
	ConnectEndpoint(r, 1, s1)
	injectPacket(t, r, 2, 0, flit.Packet{Flow: 1, Length: 3, Dst: 0}, 0)
	injectPacket(t, r, 2, 0, flit.Packet{Flow: 1, Length: 3, Dst: 1}, 0)
	for c := int64(0); c < 20; c++ {
		r.Step(c)
	}
	if s0.Packets != 1 || s1.Packets != 1 {
		t.Fatalf("packets delivered: out0=%d out1=%d, want 1/1", s0.Packets, s1.Packets)
	}
}

func TestVCsBypassHoLBlocking(t *testing.T) {
	// Output 0 is fully stalled. A packet to output 0 sits in VC 0;
	// a packet to output 1 in VC 1 of the same input port must still
	// get through.
	r, err := NewRouter(0, testConfig(3, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	stalled := NewStallSink(1, func(int64) bool { return false })
	ConnectEndpoint(r, 0, stalled)
	stalled.Bind(r, 0)
	s1 := &Sink{}
	ConnectEndpoint(r, 1, s1)

	injectPacket(t, r, 2, 0, flit.Packet{Flow: 1, Length: 4, Dst: 0}, 0)
	injectPacket(t, r, 2, 1, flit.Packet{Flow: 2, Length: 4, Dst: 1}, 0)
	for c := int64(0); c < 30; c++ {
		r.Step(c)
	}
	if s1.Packets != 1 {
		t.Errorf("VC 1 packet blocked behind an unrelated stalled VC 0 worm")
	}
}

func TestRandomisedManyPacketsAllDelivered(t *testing.T) {
	// Stress: random packets from 3 inputs to 2 outputs across 2 VCs;
	// every injected packet must eventually eject, exactly once.
	r, err := NewRouter(0, testConfig(5, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	sinks := [2]*Sink{{}, {}}
	var delivered int64
	for o := 0; o < 2; o++ {
		sinks[o].OnTail = func(f flit.Flit, cycle int64) { delivered++ }
		ConnectEndpoint(r, o, sinks[o])
	}
	for p := 2; p < 5; p++ {
		ConnectEndpoint(r, p, &Sink{})
	}
	src := rng.New(7)
	injected := int64(0)
	// Pending injections: one packet at a time per (input, vc).
	type pending struct {
		flits []flit.Flit
		next  int
	}
	var pend [5][2]*pending
	for c := int64(0); c < 30000; c++ {
		for in := 2; in < 5; in++ {
			for vc := 0; vc < 2; vc++ {
				pd := pend[in][vc]
				if pd == nil && src.Bernoulli(0.02) {
					p := flit.Packet{
						Flow:   in*2 + vc,
						Length: src.IntRange(1, 12),
						Dst:    src.Intn(2),
					}
					pd = &pending{flits: p.Flits()}
					pend[in][vc] = pd
					injected++
				}
				if pd != nil {
					if r.Inject(in, vc, pd.flits[pd.next], c) {
						pd.next++
						if pd.next == len(pd.flits) {
							pend[in][vc] = nil
						}
					}
				}
			}
		}
		r.Step(c)
	}
	// Drain: stop creating packets but keep feeding the flits of
	// partially injected worms.
	for c := int64(30000); c < 40000; c++ {
		for in := 2; in < 5; in++ {
			for vc := 0; vc < 2; vc++ {
				pd := pend[in][vc]
				if pd != nil && r.Inject(in, vc, pd.flits[pd.next], c) {
					pd.next++
					if pd.next == len(pd.flits) {
						pend[in][vc] = nil
					}
				}
			}
		}
		r.Step(c)
	}
	if delivered != injected {
		t.Errorf("injected %d packets, delivered %d", injected, delivered)
	}
}
