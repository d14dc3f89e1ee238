package core_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/harness"
)

// FuzzERRInvariants drives ERR with an arbitrary interleaving of
// arrivals and services decoded from the fuzz input, then verifies
// the recorded trace against Lemma 1, the allowance guarantee and
// Theorem 2 via check.VerifyTrace. Run with `go test -fuzz
// FuzzERRInvariants ./internal/core` to explore; the seed corpus runs
// as part of the normal test suite.
func FuzzERRInvariants(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0xFF, 0x07, 0x23})
	f.Add([]byte{0x00})
	f.Add([]byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22, 0x33})
	// Pathological patterns (see pathological_test.go): drain every
	// flow then burst all four back at once...
	f.Add([]byte{0x00, 0x02, 0x04, 0x06, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x00, 0x02, 0x04, 0x06})
	// ...and one flow of maximum-size packets against length-1 rivals.
	f.Add([]byte{0xF8, 0x02, 0x04, 0x01, 0x01, 0xF8, 0x02, 0x04, 0x01, 0x01, 0x01, 0x01})
	// Fuzzer-found regression: two busy periods of the same single
	// flow. The verifier must not merge the periods' same-numbered
	// rounds when summing per-round service (the round counter resets
	// when the system drains).
	f.Add([]byte{0x30, 0x30, 0x30, 0x31, 0x31, 0x31, 0x30, 0x30, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		const flows = 4
		e := core.New()
		rec := &core.TraceRecorder{}
		e.SetTrace(rec)
		d := harness.New(flows, e)
		var m int64 = 1
		for _, b := range data {
			if b&1 == 0 || d.Backlog() == 0 {
				length := int(b>>3)%16 + 1
				if int64(length) > m {
					m = int64(length)
				}
				d.Arrive(flit.Packet{Flow: int(b>>1) % flows, Length: length})
			} else {
				d.ServeOne()
			}
		}
		d.Drain()
		if err := check.VerifyTrace(rec, m, 3); err != nil {
			t.Fatalf("invariant violated: %v (input %x)", err, data)
		}
	})
}

// FuzzWeightedERRInvariants does the same for the weighted variant:
// surplus counts stay within [0, m-1] and allowances at or above the
// flow's weight.
func FuzzWeightedERRInvariants(f *testing.F) {
	f.Add([]byte{0x52, 0x12, 0x99, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		const flows = 3
		weights := []int64{1, 2, 3}
		e := core.NewWeighted(func(fl int) int64 { return weights[fl] })
		rec := &core.TraceRecorder{}
		e.SetTrace(rec)
		d := harness.New(flows, e)
		var m int64 = 1
		for _, b := range data {
			if b&1 == 0 || d.Backlog() == 0 {
				length := int(b>>3)%12 + 1
				if int64(length) > m {
					m = int64(length)
				}
				d.Arrive(flit.Packet{Flow: int(b>>1) % flows, Length: length})
			} else {
				d.ServeOne()
			}
		}
		d.Drain()
		// Lemma 1 holds as stated; weighted ERR's Theorem 2 differs, so
		// no window is checked.
		if err := check.VerifyTrace(rec, m, 0); err != nil {
			t.Fatalf("invariant violated: %v (input %x)", err, data)
		}
		for _, ev := range rec.Events {
			if ev.Allowance < weights[ev.Flow] {
				t.Fatalf("weighted allowance %d < weight %d", ev.Allowance, weights[ev.Flow])
			}
		}
	})
}
