package engine_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// TestTimestampDecisionsPinned pins every departure of SCFQ, STFQ, WFQ
// and VirtualClock, at equal weights and at weights f%3+1, over 200k
// cycles of six flows: two Bernoulli, two OnOff, and two Backlogged
// flows, each open for its own window. The load between the windows
// leaves the server idle often, which exercises VirtualClock's reset
// to real time and WFQ's frozen virtual time; inside them the server
// is saturated. Each departure's (flow, ID, length, cycle) is hashed
// with FNV-64a, and the digest must equal the constant recorded here.
func TestTimestampDecisionsPinned(t *testing.T) {
	weighted := func(f int) float64 { return float64(f%3 + 1) }
	cases := []struct {
		name string
		mk   func(w func(int) float64) sched.Scheduler
		want [2]uint64 // nil weights, then f%3+1
	}{
		{"SCFQ", func(w func(int) float64) sched.Scheduler { return sched.NewSCFQ(w) },
			[2]uint64{0x1439c0639cbcdb16, 0xfd620cf0e8b1a062}},
		{"STFQ", func(w func(int) float64) sched.Scheduler { return sched.NewSTFQ(w) },
			[2]uint64{0x15b593f03d5ac3a3, 0x685771bd4616e2a0}},
		{"WFQ", func(w func(int) float64) sched.Scheduler { return sched.NewWFQ(w) },
			[2]uint64{0x015f255dc43df59e, 0xb8f2d5b11ac29740}},
		{"VirtualClock", func(w func(int) float64) sched.Scheduler { return sched.NewVirtualClock(w) },
			[2]uint64{0x6d93da630c5d237b, 0xcfac3d0bb54bb8f2}},
	}
	for _, c := range cases {
		for i, w := range []func(int) float64{nil, weighted} {
			digest, departures, idle := tagDigest(t, c.mk(w))
			if departures < 10000 || idle < 20000 {
				t.Errorf("%s weights #%d: %d departures and %d idle cycles, want both", c.name, i, departures, idle)
			}
			if digest != c.want[i] {
				t.Errorf("%s weights #%d: digest %#x over %d departures, want %#x",
					c.name, i, digest, departures, c.want[i])
			}
		}
	}
}

// tagDigest runs s for 200k cycles over the six-flow mix and returns
// the FNV-64a digest of its departures, their number and the number
// of idle cycles.
func tagDigest(t *testing.T, s sched.Scheduler) (digest uint64, departures, idle int) {
	t.Helper()
	src := rng.New(2027)
	short, long := rng.NewUniform(1, 16), rng.NewUniform(1, 64)
	h := fnv.New64a()
	var buf [32]byte
	e, err := engine.NewEngine(engine.Config{
		Flows:     6,
		Scheduler: s,
		Source: traffic.NewMulti(
			traffic.NewBernoulli(0, 0.02, short, src.Split()),
			traffic.NewBernoulli(1, 0.006, long, src.Split()),
			traffic.NewOnOff(2, 0.1, 300, 1500, short, src.Split()),
			traffic.NewOnOff(3, 0.03, 800, 2500, long, src.Split()),
			traffic.NewWindow(traffic.NewBacklogged(4, 3, long, src.Split()), 30_000, 70_000),
			traffic.NewWindow(traffic.NewBacklogged(5, 2, short, src.Split()), 120_000, 150_000),
		),
		OnDeparture: func(p flit.Packet, cycle, _ int64) {
			binary.LittleEndian.PutUint64(buf[0:], uint64(p.Flow))
			binary.LittleEndian.PutUint64(buf[8:], uint64(p.ID))
			binary.LittleEndian.PutUint64(buf[16:], uint64(p.Length))
			binary.LittleEndian.PutUint64(buf[24:], uint64(cycle))
			h.Write(buf[:])
			departures++
		},
		OnIdle: func(int64) { idle++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(200_000)
	return h.Sum64(), departures, idle
}
