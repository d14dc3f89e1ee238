package noc

import (
	"testing"

	"repro/internal/check"
	"repro/internal/rng"
)

// TestCheckStreamsCleanOnMultiVCMesh runs nocsim's -vcs 2 -rate 0.06
// scenario through CheckStreams: on a fault-free mesh, two packets
// from one source to one sink that travel on different VCs interleave
// at the ejection link, and the stream check must not mistake that
// for a wormhole violation.
func TestCheckStreamsCleanOnMultiVCMesh(t *testing.T) {
	m, err := NewMesh(Config{K: 4, VCs: 2, BufFlits: 8, NewArb: newERR})
	if err != nil {
		t.Fatal(err)
	}
	rec := check.NewRecorder()
	streams := m.CheckStreams(rec)
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
