package wormhole

import (
	"testing"

	"repro/internal/flit"
)

// Tests of the shared-buffer (DAMQ) input mode and its stop/go flow
// control.

func damqConfig(ports, vcs, reserve, shared int) Config {
	c := testConfig(ports, vcs, reserve)
	c.SharedBufFlits = shared
	return c
}

func TestDAMQConfigValidation(t *testing.T) {
	// Shared buffer smaller than the reservations is rejected.
	if _, err := NewRouter(0, damqConfig(2, 2, 4, 6)); err == nil {
		t.Error("undersized shared buffer accepted")
	}
	if _, err := NewRouter(0, damqConfig(2, 2, 2, 8)); err != nil {
		t.Errorf("valid DAMQ config rejected: %v", err)
	}
}

func TestDAMQRouterForwardsPackets(t *testing.T) {
	r, err := NewRouter(0, damqConfig(3, 2, 1, 12))
	if err != nil {
		t.Fatal(err)
	}
	sink := &Sink{}
	ConnectEndpoint(r, 0, sink)
	injectPacket(t, r, 1, 0, flit.Packet{Flow: 1, Length: 5, Dst: 0}, 0)
	injectPacket(t, r, 2, 1, flit.Packet{Flow: 2, Length: 5, Dst: 0}, 0)
	for c := int64(0); c < 30; c++ {
		r.Step(c)
	}
	if sink.Packets != 2 || sink.Flits != 10 {
		t.Fatalf("delivered %d packets / %d flits, want 2/10", sink.Packets, sink.Flits)
	}
}

func TestDAMQAbsorbsBurstBeyondStaticPartition(t *testing.T) {
	// With reserve 1 and shared 12 across 2 VCs, a single VC can
	// buffer far more than its static share. InputFree must reflect
	// the shared headroom.
	r, err := NewRouter(0, damqConfig(2, 2, 1, 12))
	if err != nil {
		t.Fatal(err)
	}
	if free := r.InputFree(1, 0); free != 11 { // 1 reserved + 10 shared
		t.Fatalf("InputFree = %d, want 11", free)
	}
	n := 0
	for r.Inject(1, 0, flit.Flit{Flow: 1, Kind: flit.Body, Seq: n}, 0) {
		n++
	}
	if n != 11 {
		t.Fatalf("single VC buffered %d flits, want 11 (1 reserved + 10 shared)", n)
	}
	// The other VC's reservation survives.
	if !r.Inject(1, 1, flit.Flit{Flow: 2, Kind: flit.Body}, 0) {
		t.Fatal("other VC denied its reserved slot")
	}
}

func TestGatedLinkBetweenRouters(t *testing.T) {
	// r0 (static) feeds r1 (DAMQ): the link must use stop/go gating
	// and never overflow the shared buffer.
	cfg0 := testConfig(3, 2, 8)
	cfg0.Route = func(_, dst int) int {
		if dst == 99 {
			return 1
		}
		return dst
	}
	r0, err := NewRouter(0, cfg0)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := damqConfig(3, 2, 1, 6)
	// At r1 everything ejects locally.
	cfg1.Route = func(_, dst int) int { return 0 }
	r1, err := NewRouter(1, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	// dst 99 routes out of r0 port 1 into r1 port 1.
	Connect(r0, 1, r1, 1)
	ConnectEndpoint(r0, 0, &Sink{})
	ConnectEndpoint(r0, 2, &Sink{})
	sink := &Sink{}
	ConnectEndpoint(r1, 0, sink)
	ConnectEndpoint(r1, 2, &Sink{})

	// Several packets on both VCs; everything must arrive despite the
	// small shared buffer at r1.
	want := int64(0)
	for i := 0; i < 4; i++ {
		for vc := 0; vc < 2; vc++ {
			if r0.InputFree(2, vc) >= 5 {
				injectPacket(t, r0, 2, vc, flit.Packet{Flow: vc, Length: 5, Dst: 99}, 0)
				want++
			}
		}
	}
	for c := int64(0); c < 200; c++ {
		r0.Step(c)
		r1.Step(c)
	}
	if sink.Packets != want {
		t.Fatalf("delivered %d packets, want %d", sink.Packets, want)
	}
}

func TestDAMQStressAllDelivered(t *testing.T) {
	// Randomised stress in DAMQ mode mirroring the static-mode stress
	// test: no flit loss, no deadlock.
	r, err := NewRouter(0, damqConfig(5, 2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	for o := 0; o < 2; o++ {
		s := &Sink{}
		s.OnTail = func(f flit.Flit, cycle int64) { delivered++ }
		ConnectEndpoint(r, o, s)
	}
	for p := 2; p < 5; p++ {
		ConnectEndpoint(r, p, &Sink{})
	}
	type pending struct {
		flits []flit.Flit
		next  int
	}
	var pend [5][2]*pending
	injected := int64(0)
	step := func(c int64, create bool) {
		for in := 2; in < 5; in++ {
			for vc := 0; vc < 2; vc++ {
				pd := pend[in][vc]
				if pd == nil && create && (c+int64(in)*3+int64(vc))%17 == 0 {
					p := flit.Packet{
						Flow:   in*2 + vc,
						Length: int(c%9) + 1,
						Dst:    int(c) % 2,
					}
					pd = &pending{flits: p.Flits()}
					pend[in][vc] = pd
					injected++
				}
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
	for c := int64(0); c < 20000; c++ {
		step(c, true)
	}
	for c := int64(20000); c < 30000; c++ {
		step(c, false)
	}
	if delivered != injected {
		t.Errorf("injected %d, delivered %d", injected, delivered)
	}
}
