package wormhole

import (
	"testing"

	"repro/internal/flit"
)

// stallUntil is an output fault whose link is stalled until cycle
// until (exclusive): it answers the cycles left.
type stallUntil struct{ until int64 }

func (s stallUntil) Stalled(cycle int64) int64            { return max(0, s.until-cycle) }
func (stallUntil) Drop(flit.Flit, int64) bool             { return false }
func (stallUntil) Corrupt(f flit.Flit, _ int64) flit.Flit { return f }

// TestNextEventAt pins each answer of NextEventAt: EventNever for a
// router that is not Runnable, now+k for one frozen for k cycles, the
// earliest end among the stalls when every pending output is stalled,
// and now when one pending output is not.
func TestNextEventAt(t *testing.T) {
	const now = 10
	// Inputs 2 and 3 hold a packet each for outputs 0 and 1; after
	// the grant step both outputs are pending and nothing is grantable.
	setup := func(t *testing.T) *Router {
		t.Helper()
		r, err := NewRouter(0, testConfig(4, 1, 8))
		if err != nil {
			t.Fatal(err)
		}
		ConnectEndpoint(r, 0, &Sink{})
		ConnectEndpoint(r, 1, &Sink{})
		if got := r.NextEventAt(0); got != EventNever {
			t.Fatalf("empty router: NextEventAt = %d, want EventNever", got)
		}
		injectPacket(t, r, 2, 0, flit.Packet{Flow: 2, Length: 4, Dst: 0}, 0)
		injectPacket(t, r, 3, 0, flit.Packet{Flow: 3, Length: 4, Dst: 1}, 0)
		r.Step(0)
		if r.grantable.Any() || r.pendingOut.Count() != 2 {
			t.Fatalf("after the grant step: grantable %v, %d pending outputs, want none and 2",
				r.grantable.Any(), r.pendingOut.Count())
		}
		return r
	}

	t.Run("frozen", func(t *testing.T) {
		r := setup(t)
		r.SetFreeze(func(c int64) int64 { return max(0, 25-c) })
		if got := r.NextEventAt(now); got != 25 {
			t.Errorf("frozen until 25: NextEventAt(%d) = %d, want 25", now, got)
		}
		r.SetFreeze(func(int64) int64 { return EventNever })
		if got := r.NextEventAt(now); got != EventNever {
			t.Errorf("frozen forever: NextEventAt(%d) = %d, want EventNever (saturated)", now, got)
		}
	})
	t.Run("every pending output stalled", func(t *testing.T) {
		r := setup(t)
		r.SetOutputFault(0, stallUntil{30})
		r.SetOutputFault(1, stallUntil{50})
		if got := r.NextEventAt(now); got != 30 {
			t.Errorf("outputs stalled until 30 and 50: NextEventAt(%d) = %d, want the earliest end 30", now, got)
		}
	})
	t.Run("one pending output not stalled", func(t *testing.T) {
		r := setup(t)
		r.SetOutputFault(0, stallUntil{50})
		r.SetOutputFault(1, stallUntil{now})
		if got := r.NextEventAt(now); got != now {
			t.Errorf("output 1's stall over: NextEventAt(%d) = %d, want %d", now, got, now)
		}
		r.SetOutputFault(1, nil)
		if got := r.NextEventAt(now); got != now {
			t.Errorf("output 1 unfaulted: NextEventAt(%d) = %d, want %d", now, got, now)
		}
	})
	t.Run("not runnable", func(t *testing.T) {
		r := setup(t)
		for c := int64(1); c < 20; c++ {
			r.Step(c)
		}
		if r.Runnable() {
			t.Fatal("router still runnable after delivering both packets")
		}
		r.SetFreeze(func(int64) int64 { return 100 })
		if got := r.NextEventAt(now); got != EventNever {
			t.Errorf("drained, frozen router: NextEventAt(%d) = %d, want EventNever", now, got)
		}
	})
}
