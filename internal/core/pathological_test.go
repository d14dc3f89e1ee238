package core_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/harness"
	"repro/internal/traffic"
)

// runVerified drives ERR through the harness with the given script and
// verifies the trace against Lemma 1, the allowance guarantee and
// Theorem 2.
func runVerified(t *testing.T, flows int, m int64, script func(d *harness.Driver)) {
	t.Helper()
	e := core.New()
	rec := &core.TraceRecorder{}
	e.SetTrace(rec)
	d := harness.New(flows, e)
	script(d)
	d.Drain()
	if err := check.VerifyTrace(rec, m, flows); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("script produced no service opportunities; the test is vacuous")
	}
}

// TestERRSimultaneousReactivation hits the all-empty reset path: every
// flow drains, the scheduler goes idle (Figure 1's Initialize state),
// then all flows burst back in the same step — repeatedly. Lemma 1
// must hold across every reset, with no stale MaxSC or surplus leaking
// into the new busy period.
func TestERRSimultaneousReactivation(t *testing.T) {
	const flows = 4
	runVerified(t, flows, 16, func(d *harness.Driver) {
		for burst := 0; burst < 10; burst++ {
			for f := 0; f < flows; f++ {
				d.Arrive(flit.Packet{Flow: f, Length: (burst+f)%16 + 1})
			}
			// Serve to empty: the active list resets completely.
			for d.Backlog() > 0 {
				d.ServeOne()
			}
		}
	})
}

// TestERRSingleMaxSizePacketFlows pins the worst-overshoot corner: one
// flow sends only maximum-size packets against minimum-size rivals, so
// its surplus rides the m-1 bound every round.
func TestERRSingleMaxSizePacketFlows(t *testing.T) {
	const flows, maxLen = 3, 64
	runVerified(t, flows, maxLen, func(d *harness.Driver) {
		for i := 0; i < 40; i++ {
			d.Arrive(flit.Packet{Flow: 0, Length: maxLen})
			d.Arrive(flit.Packet{Flow: 1, Length: 1})
			d.Arrive(flit.Packet{Flow: 2, Length: 1})
			for j := 0; j < 8 && d.Backlog() > 0; j++ {
				d.ServeOne()
			}
		}
	})
}

// TestERRStaggeredDrainAndRearrival alternates which flow is empty at
// each round boundary, exercising the drain-time surplus reset against
// flows that reactivate one service later.
func TestERRStaggeredDrainAndRearrival(t *testing.T) {
	const flows = 3
	runVerified(t, flows, 8, func(d *harness.Driver) {
		for i := 0; i < 60; i++ {
			d.Arrive(flit.Packet{Flow: i % flows, Length: i%8 + 1})
			if i%2 == 1 {
				for j := 0; j < 2 && d.Backlog() > 0; j++ {
					d.ServeOne()
				}
			}
		}
	})
}

// FuzzERRCheckedEngine is the engine-level counterpart of
// FuzzERRInvariants: the fuzz input decodes to an arrival script
// replayed through the real engine with the runtime invariant checker
// attached (Lemma 1 via the trace sink, flit conservation and
// ActiveList audits every cycle). Any violation — including on
// pathological reactivation patterns the corpus seeds below encode —
// fails with the checker's cycle-stamped report.
func FuzzERRCheckedEngine(f *testing.F) {
	// Simultaneous reactivation after idle: bursts separated by gaps.
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0xFF, 0x01, 0x11, 0x21, 0x31, 0xFF})
	// Single max-size packet flow against minimal rivals.
	f.Add([]byte{0xF0, 0x01, 0x02, 0xF0, 0x01, 0x02})
	// Dense interleaving, no idle.
	f.Add([]byte{0xAA, 0x55, 0xC3, 0x3C, 0x99, 0x66})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const flows = 4
		if len(data) > 256 {
			data = data[:256]
		}
		var events []traffic.TraceEvent
		cycle, totalFlits := int64(0), int64(0)
		for _, b := range data {
			if b == 0xFF {
				cycle += 200 // an idle gap long enough to drain and reset
				continue
			}
			length := int(b>>4) + 1
			events = append(events, traffic.TraceEvent{Cycle: cycle, Flow: int(b) % flows, Length: length})
			totalFlits += int64(length)
			cycle += int64(b & 0x03)
		}
		errSched := core.New()
		ecfg := engine.Config{
			Flows:     flows,
			Scheduler: errSched,
			Source:    traffic.NewReplay(events),
		}
		chk := check.NewEngineChecker(flows)
		chk.Wire(&ecfg)
		errSched.SetTrace(chk)
		e, err := engine.NewEngine(ecfg)
		if err != nil {
			t.Fatal(err)
		}
		chk.Attach(e, errSched)
		for c := int64(0); c < cycle+totalFlits+16; c++ {
			e.Step()
			chk.Tick()
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("invariant violated: %v (input %x)", err, data)
		}
		if len(events) > 0 && !chk.Lemma1Checked() {
			t.Fatalf("arrivals were injected but no ERR opportunity was checked (input %x)", data)
		}
	})
}
