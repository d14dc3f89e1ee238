package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/trace"
)

// TestSendAtReleasesInSubmissionOrder pins SendAt's release order:
// sends due in one cycle enter the network in the order they were
// submitted, whatever their sources, after every send due earlier.
// The differential tests cannot see this order, since the reference
// releases through the same heap; packet ids, and with them the
// flight recorder's sampling, follow it. The recorder's inject records
// show it: Records keeps one cycle's injects in Send order.
func TestSendAtReleasesInSubmissionOrder(t *testing.T) {
	m, err := NewMesh(meshCfg(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTrace(TraceConfig{SampleEvery: 1})
	srcs := []int{9, 3, 14, 0, 7, 12, 5, 1, 10, 6, 15, 2, 11, 4, 13, 8}
	var early, late []int32
	for i, src := range srcs {
		at := int64(5)
		if i%3 == 2 {
			at = 4
			early = append(early, int32(src))
		} else {
			late = append(late, int32(src))
		}
		m.SendAt(at, src, (src+5)%16, 2)
	}
	m.Run(10)
	var got []int32
	for _, r := range tr.Records() {
		if r.Kind == trace.KindInject {
			got = append(got, r.Router)
		}
	}
	if want := append(early, late...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("inject order by source %v, want %v", got, want)
	}
}

// TestEventMatchesSteppedMeshFaults is the adversarial event-core
// oracle on a mesh: a freeze window spanning an entire idle gap AND
// the next burst (a dormant-frozen router must wake exactly at the
// thaw edge while neighbours hold worms aimed at it), a stall window
// opening just before a burst, plus probabilistic drop/corruption.
// Event-driven Run/Drain must reproduce the reference byte for byte.
func TestEventMatchesSteppedMeshFaults(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-mesh-faults", scenario{
		cfg:   meshCfg(false, 0),
		spec:  "freeze(router=6,at=30,dur=5100);stall(port=1,at=4990,dur=300);drop(router=5,port=1,p=0.05);corrupt(router=10,p=0.05)",
		sends: burstSends(16, 21, []int64{0, 5000, 10000}, 12),
		run:   12_000,
		drain: 6_000,
	})
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a cycle on a bursty scenario")
	}
}

// TestEventMatchesSteppedTwoStalls pins the earliest of several stall
// ends: worms wait behind two outputs of router 5, east stalled for
// 50 cycles and north for 1900, with nothing else able to act. The
// router must wake when the east stall ends, not when the last one
// does; a router answering the latest end skips the cycles in which
// the east worm moves.
func TestEventMatchesSteppedTwoStalls(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-two-stalls", scenario{
		cfg:   meshCfg(false, 0),
		spec:  "stall(router=5,port=1,at=100,dur=50);stall(router=5,port=4,at=100,dur=1900)",
		sends: []send{{90, 4, 7, 6}, {91, 1, 13, 6}, {93, 4, 7, 5}, {94, 1, 13, 4}, {95, 4, 7, 3}},
		run:   3000,
		drain: 2000,
	})
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a stalled cycle")
	}
}

// TestEventMatchesSteppedDirectFreeze installs a freeze hook with
// Router.SetFreeze, without Protect: its block length alone makes the
// frozen router dormant, so the fast run skips the frozen cycles and
// still reproduces the reference.
func TestEventMatchesSteppedDirectFreeze(t *testing.T) {
	const from, to = 10, 4000
	ref, fast := assertMatchesReference(t, "event-direct-freeze", scenario{
		cfg: meshCfg(false, 0),
		hooks: func(m *Mesh) {
			m.Router(5).SetFreeze(func(c int64) int64 {
				if c >= from && c < to {
					return to - c
				}
				return 0
			})
		},
		sends: burstSends(16, 21, []int64{0}, 12),
		run:   5000,
		drain: 2000,
	})
	if ref.latMax < to-from {
		t.Fatalf("scenario degenerate: no packet waited out the freeze (max latency %v)", ref.latMax)
	}
	if fast.skipped < (to-from)/2 {
		t.Fatalf("fast run skipped %d cycles, want most of the %d frozen ones", fast.skipped, to-from)
	}
}

// TestEventMatchesSteppedTorusFaults repeats the oracle on a torus
// (dateline VCs, wrap routing) under a stall window and a freeze that
// opens mid-burst.
func TestEventMatchesSteppedTorusFaults(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-torus-faults", scenario{
		cfg:   meshCfg(true, 0),
		spec:  "stall(port=1,at=5005,dur=400);freeze(router=6,at=10,dur=200)",
		sends: burstSends(16, 21, []int64{0, 5000, 10000}, 12),
		run:   12_000,
		drain: 6_000,
	})
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a cycle on a bursty scenario")
	}
}

// TestEventMatchesSteppedSwitchDrain runs the single switch through
// the kernel: a drain sink at p = 0.4 whose pattern draws randomness
// in every cycle it holds flits (so the event core must step those
// cycles), a stall window on the contended output and a switch freeze.
func TestEventMatchesSteppedSwitchDrain(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-switch-drain", scenario{
		graph: switchGraph,
		spec:  "stall(port=0,at=700,dur=300);freeze(router=0,at=5100,dur=200)",
		sends: sendsTo([]int{1, 2, 3, 4}, 0, 21, []int64{0, 5000, 10000}, 40),
		run:   12_000,
		drain: 6_000,
	}, poolVariants...)
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a cycle on a bursty scenario")
	}
}

// TestEventMatchesSteppedChain runs the parking-lot chain through the
// kernel, with per-router weighted arbiters and a freeze of an
// interior router while its upstream worms wait.
func TestEventMatchesSteppedChain(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-chain", scenario{
		graph: chainGraph,
		spec:  "freeze(router=2,at=5010,dur=400)",
		sends: sendsTo([]int{0, 1, 2, 3}, 4, 21, []int64{0, 5000, 10000}, 30),
		run:   12_000,
		drain: 6_000,
	}, poolVariants...)
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a cycle on a bursty scenario")
	}
}

// TestEventMatchesSteppedDAMQ pins the event core on shared-buffer
// (DAMQ) inputs, whose stop/go gates must keep routers polling (never
// dormant) even under a stall window with known edges.
func TestEventMatchesSteppedDAMQ(t *testing.T) {
	_, fast := assertMatchesReference(t, "event-damq", scenario{
		cfg:   Config{K: 4, VCs: 2, BufFlits: 2, SharedBufFlits: 16, SharedBufCap: 12, NewArb: newERR},
		spec:  "stall(port=2,at=3,dur=120)",
		sends: burstSends(16, 21, []int64{0, 4000, 8000}, 12),
		run:   10_000,
		drain: 6_000,
	})
	if fast.skipped == 0 {
		t.Fatal("event core never skipped a cycle on a bursty scenario")
	}
}

// TestFaultWindowInsideIdleGapNoOp pins the time-skip edge case: a
// fault window that opens AND closes entirely inside a skipped idle
// gap is a strict no-op. The event run must reproduce the reference —
// and the window must not cost a single stepped cycle: the run with
// the gap-internal windows steps exactly as many cycles as a clean
// run.
func TestFaultWindowInsideIdleGapNoOp(t *testing.T) {
	s := scenario{
		cfg: meshCfg(false, 0),
		// Both windows open and close inside the idle gap between the
		// burst draining (well before cycle 1000) and cycle 10000.
		spec:  "stall(port=1,at=3000,dur=1000);freeze(router=5,at=4200,dur=300)",
		sends: burstSends(16, 21, []int64{0, 10_000}, 8),
		run:   11_000,
		drain: 5_000,
	}
	ref, faulted := assertMatchesReference(t, "gap-window", s)
	if ref.inFlight != 0 {
		t.Fatalf("scenario degenerate: %d in flight", ref.inFlight)
	}
	if faulted.skipped == 0 {
		t.Fatal("event core never skipped with a fault window in the gap")
	}
	// Same run without the windows: identical artifacts AND identical
	// work telemetry — the no-op windows must not add one stepped
	// cycle, one router compute, or one visited cell.
	s.spec = ""
	assertArtifactsEqual(t, "gap-window-vs-clean", runScenario(t, s, false), faulted, true)
}

// wedgeRun wedges a mesh quietly — a permanent output stall strands a
// worm with nothing runnable and no event pending — and drains with a
// watchdog attached. Returns the wedge report (nil = never tripped:
// the trip cycle and the wait-graph dump at the trip), whether the
// drain claimed success, the final cycle, and the skipped count.
func wedgeRun(t *testing.T, reference bool) (wedge error, drained bool, cycle, skipped int64) {
	t.Helper()
	m, err := NewMesh(meshCfg(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	m.SetReference(reference)
	if _, _, err := m.Protect("stall(router=5,port=1,at=5)", 3, false); err != nil {
		t.Fatal(err)
	}
	m.watchProgress(check.NewWatchdog(200))
	// One packet that delivers cleanly (advancing the watchdog clock)
	// and one that wedges against router 5's permanently stalled east
	// output.
	m.SendAt(0, m.NodeID(0, 0), m.NodeID(1, 0), 3)
	m.SendAt(0, m.NodeID(0, 1), m.NodeID(3, 1), 3)
	drained = m.Drain(3_000)
	return m.Wedged(), drained, m.Cycle(), m.Skipped()
}

// TestDrainWedgedQuietTripsWatchdog closes the watchdog/time-skip
// blind spot: a wedged-but-quiet network (in-flight flits, nothing
// runnable, no event pending) used to be jumped straight to the
// horizon, silently degrading the deadlock diagnostic to "Drain
// returned false". Event-driven Drain must now trip the watchdog at
// the exact cycle the reference would, record the same wedge report
// with a non-empty channel-wait dump, and only then skip to the
// horizon.
func TestDrainWedgedQuietTripsWatchdog(t *testing.T) {
	sWedge, sDrained, sCycle, sSkipped := wedgeRun(t, true)
	if sDrained {
		t.Fatal("reference drained a permanently wedged network")
	}
	if sWedge == nil {
		t.Fatal("reference never tripped the watchdog")
	}
	if sSkipped != 0 {
		t.Fatalf("reference skipped %d cycles", sSkipped)
	}
	eWedge, eDrained, eCycle, eSkipped := wedgeRun(t, false)
	if eDrained {
		t.Fatal("event-driven Drain drained a permanently wedged network")
	}
	if eSkipped == 0 {
		t.Fatal("event-driven Drain never skipped: the wedged-quiet tail was stepped literally")
	}
	if eWedge == nil {
		t.Fatal("event-driven Drain never tripped the watchdog")
	}
	if eCycle != sCycle {
		t.Errorf("final cycles diverge: reference %d, event %d", sCycle, eCycle)
	}
	for name, w := range map[string]error{"reference": sWedge, "event": eWedge} {
		if dump := w.Error(); !strings.Contains(dump, "channel-wait graph:\n  router") {
			t.Errorf("%s run tripped without a channel-wait dump: %q", name, dump)
		}
	}
	// The reports carry the trip cycle and the wait-graph dump.
	if eWedge.Error() != sWedge.Error() {
		t.Errorf("wedge reports diverge:\nreference: %v\nevent:     %v", sWedge, eWedge)
	}
}

// TestRunHorizonClamp pins the int64 overflow guard in Run's horizon
// arithmetic: Run(math.MaxInt64) must clamp to HorizonCap instead of
// wrapping cycle+n negative — while still releasing and delivering
// scheduled traffic on the way, and terminating in O(events), not
// O(cycles).
func TestRunHorizonClamp(t *testing.T) {
	m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 4, NewArb: newERR})
	if err != nil {
		t.Fatal(err)
	}
	m.SendAt(1_000_000, 0, 5, 3)
	m.Run(math.MaxInt64)
	if m.Cycle() != HorizonCap {
		t.Fatalf("Run(MaxInt64) ended at cycle %d, want HorizonCap %d", m.Cycle(), HorizonCap)
	}
	if m.Latency.N() != 1 || m.InFlight() != 0 {
		t.Fatalf("far-future packet not delivered: %d samples, %d in flight", m.Latency.N(), m.InFlight())
	}
	// Idempotent at the cap: a second maximal run must not wrap, step,
	// or move the clock.
	m.Run(math.MaxInt64)
	if m.Cycle() != HorizonCap {
		t.Fatalf("second Run(MaxInt64) moved the clock to %d", m.Cycle())
	}
}

// TestDrainHorizonClamp pins the same guard in Drain: a permanently
// wedged network drained with maxCycles == math.MaxInt64 must land
// exactly on HorizonCap and report failure — no overflow, no negative
// horizons, no cycle-by-cycle crawl. A send scheduled beyond the
// horizon must simply never release.
func TestDrainHorizonClamp(t *testing.T) {
	m, err := NewMesh(Config{K: 3, VCs: 2, BufFlits: 4, NewArb: newERR})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Protect("stall(router=4,port=1,at=0)", 3, false); err != nil {
		t.Fatal(err)
	}
	m.SendAt(0, m.NodeID(0, 1), m.NodeID(2, 1), 3)
	m.SendAt(math.MaxInt64-3, 0, 1, 1)
	if m.Drain(math.MaxInt64) {
		t.Fatal("Drain claimed success on a wedged network")
	}
	if m.Cycle() != HorizonCap {
		t.Fatalf("Drain(MaxInt64) ended at cycle %d, want HorizonCap %d", m.Cycle(), HorizonCap)
	}
	if m.InFlight() != 1 {
		t.Fatalf("in flight = %d, want the one wedged packet", m.InFlight())
	}
	if m.Skipped() == 0 {
		t.Fatal("Drain reached the horizon without skipping: O(cycles), not O(events)")
	}
}

// FuzzMeshEventOracle feeds arbitrary send scripts AND
// arbitrarily-windowed stall/freeze faults to the fast mesh and the
// reference and requires byte-identical delivery logs, final cycles,
// and in-flight counts — a coverage-guided search for a traffic shape
// whose work-list quiescence drops an event, or a window placement
// whose dormancy analysis skips a cycle that mattered. hdr[6] picks
// the commit tile edge (bits 0-1; 0 = auto), so the search covers
// every tiling of the K=3 mesh, 1x1 boundary-only through 3x3
// single-tile, and the gap resolution (bit 2: send gaps count single
// cycles instead of multiples of 4). Run with
// `go test -fuzz FuzzMeshEventOracle ./internal/noc`.
func FuzzMeshEventOracle(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x08, 0x04, 0x02, 0x30, 0x00, 0x01, 0x53, 0x22, 0x90, 0x07})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff})
	f.Add([]byte{0x05, 0x20, 0x00, 0x07, 0x01, 0x10, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50})
	// Tiled configs: explicit 1x1 (every commit crosses a boundary) and
	// 2x2 (uneven edge tiles on K=3) under faulted bursty traffic.
	f.Add([]byte{0x03, 0x10, 0x08, 0x04, 0x02, 0x30, 0x01, 0x53, 0x22, 0x90, 0x07, 0x11})
	f.Add([]byte{0x05, 0x20, 0x00, 0x07, 0x01, 0x10, 0x02, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		if len(data) > 96 {
			data = data[:96]
		}
		checkMeshOracle(t, data[:7], data[7:])
	})
}

// checkMeshOracle decodes one fuzz input — a 7-byte fault/tile/gap
// header (see FuzzMeshEventOracle) and a send script — and requires
// the fast mesh to reproduce the reference's artifacts.
func checkMeshOracle(t *testing.T, hdr, script []byte) {
	tile := int(hdr[6] % 4) // 0 = auto, else explicit 1..3
	gapScale := int64(4)
	if hdr[6]&4 != 0 {
		gapScale = 1
	}
	var specs []string
	if hdr[0]%4 != 0 {
		// dur==0 is a permanent stall: the wedged network must still
		// agree between modes, including the horizon landing.
		s := fmt.Sprintf("stall(router=%d,port=%d,at=%d", hdr[0]%9, 1+int(hdr[1]%4), int64(hdr[1])*16)
		if dur := int64(hdr[2]) * 8; dur > 0 {
			s += fmt.Sprintf(",dur=%d", dur)
		}
		specs = append(specs, s+")")
	}
	if hdr[3]%4 != 0 {
		specs = append(specs, fmt.Sprintf("freeze(router=%d,at=%d,dur=%d)",
			hdr[3]%9, int64(hdr[4])*16, 1+int64(hdr[5])*8))
	}
	s := scenario{
		cfg:   Config{K: 3, VCs: 2, BufFlits: 2, Tile: tile, NewArb: newERR},
		spec:  strings.Join(specs, ";"),
		drain: 20_000,
	}
	// Each script triple is one send: (cycle gap, src/dst nibble
	// pair, length).
	at := int64(0)
	for i := 0; i+2 < len(script); i += 3 {
		at += int64(script[i]) * gapScale
		src := int(script[i+1]>>4) % 9
		dst := int(script[i+1]&0xf) % 9
		if src == dst {
			dst = (dst + 1) % 9
		}
		s.sends = append(s.sends, send{at, src, dst, 1 + int(script[i+2]%6)})
	}
	s.run = at + 1
	ref := runScenario(t, s, true)
	assertArtifactsEqual(t, fmt.Sprintf("faults %q", s.spec), ref, runScenario(t, s, false), false)
}
