package noc

import (
	"runtime"
	"testing"

	"repro/internal/flit"
)

// TestDrainCountsQueuedPackets pins the InFlight/Drain accounting
// contract: packets sitting in an injection front-end queue (more
// than one node can have injected yet) are in flight, so Drain must
// not report success while any remain queued.
func TestDrainCountsQueuedPackets(t *testing.T) {
	m := testMesh(t, 2)
	const packets = 50
	for i := 0; i < packets; i++ {
		m.Send(0, 3, 4) // 200 flits from one node: >= 200 cycles just to inject
	}
	if got := m.InFlight(); got != packets {
		t.Fatalf("InFlight = %d immediately after queueing %d packets", got, packets)
	}
	if got := m.PendingAt(0); got != packets {
		t.Fatalf("PendingAt(0) = %d, want %d", got, packets)
	}
	if m.Drain(20) {
		t.Fatal("Drain(20) reported success with most packets still queued")
	}
	if m.InFlight() == 0 {
		t.Fatal("InFlight dropped to 0 with traffic still queued")
	}
	if !m.Drain(10000) {
		t.Fatalf("mesh did not drain; %d in flight", m.InFlight())
	}
	if m.DeliveredPackets[0] != packets {
		t.Fatalf("delivered %d of %d packets", m.DeliveredPackets[0], packets)
	}
}

// seqKindFault corrupts exactly one flit (by sequence number) of every
// packet on the link it is installed on, flipping fromKind to toKind —
// a surgical version of the fault package's corrupt directive, so the
// test controls exactly which wire fault occurs.
type seqKindFault struct {
	seq              int
	fromKind, toKind flit.Kind
}

func (c *seqKindFault) Stalled(int64) int64        { return 0 }
func (c *seqKindFault) Drop(flit.Flit, int64) bool { return false }
func (c *seqKindFault) Corrupt(f flit.Flit, _ int64) flit.Flit {
	if f.Seq == c.seq && f.Kind == c.fromKind {
		f.Kind = c.toKind
	}
	return f
}

// TestCorruptedFakeTailDoesNotCompletePacket pins the onTail fix: a
// body flit corrupted into a tail on the ejection link must not
// complete the packet. Pre-fix, the fake tail incremented
// DeliveredPackets, recorded a short latency, and removed the packet
// from the in-flight map — so Drain could report success with the
// rest of the worm still in the network, and the real tail then
// double-counted the packet.
func TestCorruptedFakeTailDoesNotCompletePacket(t *testing.T) {
	m := testMesh(t, 3)
	src, dst := 0, m.Nodes()-1
	const length = 6
	m.Router(dst).SetOutputFault(PortLocal, &seqKindFault{seq: 2, fromKind: flit.Body, toKind: flit.Tail})
	m.Send(src, dst, length)
	if !m.Drain(1000) {
		t.Fatalf("packet did not drain; %d in flight", m.InFlight())
	}
	if got := m.DeliveredPackets[src]; got != 1 {
		t.Fatalf("DeliveredPackets = %d, want 1 (fake tail counted as a completion)", got)
	}
	if m.Latency.N() != 1 {
		t.Fatalf("latency samples = %d, want 1", m.Latency.N())
	}
	// The recorded latency must cover the full packet: at least the
	// 4-hop path plus all 6 flits, which the fake tail at seq 2 could
	// not have reached.
	if m.Latency.Mean() < float64(length+4) {
		t.Errorf("latency %v too small: recorded at the fake tail, not the real one", m.Latency.Mean())
	}
}

// TestCorruptedRealTailKeepsPacketInFlight is the dual: when the true
// tail is corrupted into a body, the packet never completes, and
// Drain must say so rather than claim success.
func TestCorruptedRealTailKeepsPacketInFlight(t *testing.T) {
	m := testMesh(t, 3)
	src, dst := 0, m.Nodes()-1
	const length = 6
	m.Router(dst).SetOutputFault(PortLocal, &seqKindFault{seq: length - 1, fromKind: flit.Tail, toKind: flit.Body})
	m.Send(src, dst, length)
	if m.Drain(1000) {
		t.Fatal("Drain reported success though the packet's tail was lost")
	}
	if got := m.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := m.DeliveredPackets[src]; got != 0 {
		t.Fatalf("DeliveredPackets = %d, want 0", got)
	}
}

// TestInjectionQueueReleasesBurstMemory pins the injection-queue
// memory-retention fix. Pre-fix, the per-node queue was a slice
// popped with q = q[1:], which keeps the entire backing array — every
// packet of the run's largest burst — reachable for the life of the
// mesh. The test absorbs one large burst per node (so the in-flight
// map's bucket high-water is already paid before the baseline is
// taken), then asserts that a second, equal burst leaves no lasting
// heap growth and that the drained queues shrank back down.
func TestInjectionQueueReleasesBurstMemory(t *testing.T) {
	m := testMesh(t, 2)
	const burst = 1 << 18
	send := func(src, dst int) {
		for i := 0; i < burst; i++ {
			m.Send(src, dst, 1)
		}
		if !m.Drain(4 * burst) {
			t.Fatalf("burst from %d did not drain; %d in flight", src, m.InFlight())
		}
	}
	send(0, 3)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	send(1, 2)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if delta := int64(after.HeapAlloc) - int64(before.HeapAlloc); delta > 6<<20 {
		t.Errorf("live heap grew %d bytes across a drained %d-packet burst; injection queue retaining its backing array", delta, burst)
	}
	for node := 0; node <= 1; node++ {
		if c := m.inj[node].queue.Cap(); c > 256 {
			t.Errorf("node %d queue capacity %d after drain, want shrunk (burst peak %d)", node, c, burst)
		}
	}
}
