package min

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/rng"
)

// omegaRun is everything a differential omega run compares: the
// per-source deliveries, the latency moments (compared exactly), the
// packets still in flight and the cycle the run ended at.
type omegaRun struct {
	flits, packets                  []int64
	latN                            int64
	latMean, latVar, latMin, latMax float64
	inFlight                        int
	cycle                           int64
}

// TestEventMatchesSteppedOmega runs the 16-terminal omega through the
// kernel's fast paths — active set, work-lists, event-driven Run and
// Drain, worker pools — and requires each run to reproduce the
// reference (noc.Mesh.SetReference: every cycle stepped, every switch
// computed, full scans). Three bursts of random packets are separated
// by idle gaps the event core must skip, a stage-1 switch freezes for
// 500 cycles inside the second burst, so the worms behind it go
// dormant until the window's edge, and Drain takes over from Run in
// the middle of the third burst.
func TestEventMatchesSteppedOmega(t *testing.T) {
	run := func(reference bool, workers int) (omegaRun, int64) {
		net := testNet(t, 16)
		net.SetReference(reference)
		if workers > 0 {
			pool := exec.NewPool(workers)
			defer pool.Close()
			net.SetPool(pool)
		}
		if _, _, err := net.Protect("freeze(router=12,at=5010,dur=500)", 1, false); err != nil {
			t.Fatal(err)
		}
		src := rng.New(21)
		for _, at := range []int64{0, 5000, 10000} {
			for i := 0; i < 40; i++ {
				net.SendAt(at+int64(src.Intn(20)), src.Intn(16), src.Intn(16), src.IntRange(1, 8))
			}
		}
		net.Run(10_010)
		net.Drain(6_000)
		return omegaRun{
			flits:    append([]int64(nil), net.DeliveredFlits...),
			packets:  append([]int64(nil), net.DeliveredPackets...),
			latN:     net.Latency.N(),
			latMean:  net.Latency.Mean(),
			latVar:   net.Latency.Var(),
			latMin:   net.Latency.Min(),
			latMax:   net.Latency.Max(),
			inFlight: net.InFlight(),
			cycle:    net.Cycle(),
		}, net.Skipped()
	}
	ref, _ := run(true, 0)
	if ref.latN != 120 || ref.inFlight != 0 {
		t.Fatalf("reference delivered %d of 120 packets, %d in flight", ref.latN, ref.inFlight)
	}
	if ref.latMax < 500 {
		t.Fatalf("the freeze delayed no packet: longest latency %v cycles", ref.latMax)
	}
	for _, workers := range []int{0, 1, 2} {
		got, skipped := run(false, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%d workers: fast run differs from the reference:\n  reference %+v\n  fast      %+v", workers, ref, got)
		}
		if skipped == 0 {
			t.Errorf("%d workers: the event core never skipped a cycle on a bursty run", workers)
		}
	}
}
