package min

import (
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/sched"
)

func testNet(t *testing.T, terminals int) *noc.Mesh {
	t.Helper()
	net, err := NewOmega(Config{
		Terminals: terminals, VCs: 2, BufFlits: 8,
		NewArb: func() sched.Scheduler { return core.New() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewOmegaValidation(t *testing.T) {
	mk := func() sched.Scheduler { return core.New() }
	for _, n := range []int{0, 2, 3, 6, 12} {
		if _, err := NewOmega(Config{Terminals: n, VCs: 1, BufFlits: 4, NewArb: mk}); err == nil {
			t.Errorf("terminals=%d accepted", n)
		}
	}
	if _, err := NewOmega(Config{Terminals: 8, VCs: 1, BufFlits: 4}); err == nil {
		t.Error("missing arbiter accepted")
	}
}

func TestStagesCount(t *testing.T) {
	for _, c := range []struct{ terminals, stages int }{{8, 3}, {16, 4}} {
		if got := Stages(c.terminals); got != c.stages {
			t.Errorf("%d terminals: %d stages, want %d", c.terminals, got, c.stages)
		}
		g := graph(Config{Terminals: c.terminals})
		if want := c.stages * c.terminals / 2; g.Routers != want {
			t.Errorf("%d terminals: %d switches, want %d", c.terminals, g.Routers, want)
		}
	}
}

// TestAllPairsDelivery is the wiring oracle: every (src, dst) pair
// must route correctly through the shuffle stages. The run is checked,
// so a flit ejected at any terminal but its destination is reported.
func TestAllPairsDelivery(t *testing.T) {
	for _, N := range []int{4, 8, 16} {
		net := testNet(t, N)
		_, rec, err := net.Protect("", 1, true)
		if err != nil {
			t.Fatal(err)
		}
		// One at a time, so contention never masks misrouting.
		for s := 0; s < N; s++ {
			for d := 0; d < N; d++ {
				net.Send(s, d, 3)
				if !net.Drain(1000) {
					t.Fatalf("N=%d: packet %d->%d lost", N, s, d)
				}
				if err := rec.Err(); err != nil {
					t.Fatalf("N=%d: packet %d->%d: %v", N, s, d, err)
				}
			}
		}
	}
}

func TestUniformLoadDrains(t *testing.T) {
	net := testNet(t, 8)
	src := rng.New(3)
	injected := 0
	for c := 0; c < 20000; c++ {
		for term := 0; term < 8; term++ {
			if net.PendingAt(term) < 2 && src.Bernoulli(0.03) {
				d := src.Intn(7)
				if d >= term {
					d++
				}
				net.Send(term, d, src.IntRange(1, 8))
				injected++
			}
		}
		net.Step()
	}
	if !net.Drain(100000) {
		t.Fatalf("omega net stuck; %d in flight", net.InFlight())
	}
	var delivered int64
	for s := 0; s < 8; s++ {
		delivered += net.DeliveredPackets[s]
	}
	if int(delivered) != injected {
		t.Fatalf("injected %d, delivered %d", injected, delivered)
	}
	if net.Latency.N() != delivered {
		t.Error("latency samples != delivered packets")
	}
}

// TestHotspotFairnessERRvsPBRR: all terminals flood terminal 0; one
// source sends 8x-long packets. The network is a binary merge tree
// into the hotspot, so shares are positional (a source that merges
// later gets a larger share — the multi-hop parking-lot effect). The
// long sender is compared with its peer, the source that injects into
// the same stage-0 switch: the two meet at one output arbiter, and the
// paper's Theorem 3 bounds the service difference between flows at
// one arbiter. A source that first meets the long sender at a later
// stage, through another subtree, arrives shaped by the contention of
// its own subtree, which no single arbiter's bound covers. Under ERR
// the pair stays near even regardless of packet length; under PBRR
// the long-packet source beats its peer by several times.
func TestHotspotFairnessERRvsPBRR(t *testing.T) {
	run := func(mk func() sched.Scheduler) (long, peer int64) {
		net, err := NewOmega(Config{
			Terminals: 8, VCs: 2, BufFlits: 8, NewArb: mk,
		})
		if err != nil {
			t.Fatal(err)
		}
		const longSender = 3
		peerSender := -1
		for s := 0; s < 8; s++ {
			if s != longSender && shuffle(s, Stages(8))/2 == shuffle(longSender, Stages(8))/2 {
				peerSender = s
			}
		}
		for c := 0; c < 60000; c++ {
			for term := 1; term < 8; term++ {
				if net.PendingAt(term) < 2 {
					length := 2
					if term == longSender {
						length = 16
					}
					net.Send(term, 0, length)
				}
			}
			net.Step()
		}
		return net.DeliveredFlits[longSender], net.DeliveredFlits[peerSender]
	}
	longERR, peerERR := run(func() sched.Scheduler { return core.New() })
	longPBRR, peerPBRR := run(func() sched.Scheduler { return sched.NewPBRR() })
	rERR := float64(longERR) / float64(peerERR)
	rPBRR := float64(longPBRR) / float64(peerPBRR)
	t.Logf("long/peer flit ratio: ERR %.3f, PBRR %.3f", rERR, rPBRR)
	// ERR stays near 1; the small residual favours long packets
	// because they cross fewer per-packet grant bubbles.
	if rERR > 1.3 {
		t.Errorf("ERR long/peer ratio %.2f, want ~1", rERR)
	}
	if rPBRR < 4 {
		t.Errorf("PBRR long/peer ratio %.2f, want >> 1", rPBRR)
	}
}

func TestSendValidation(t *testing.T) {
	net := testNet(t, 4)
	for name, fn := range map[string]func(){
		"src": func() { net.Send(-1, 0, 1) },
		"dst": func() { net.Send(0, 4, 1) },
		"len": func() { net.Send(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad %s accepted", name)
				}
			}()
			fn()
		}()
	}
}
