package check_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/obs"
)

func TestWatchdog(t *testing.T) {
	wd := check.NewWatchdog(10)
	if wd.Expired(5, 1) {
		t.Fatal("tripped before the budget elapsed")
	}
	if !wd.Expired(10, 1) {
		t.Fatal("did not trip after 10 silent cycles with backlog")
	}
	if !wd.Tripped() {
		t.Fatal("Tripped() false after expiring")
	}
	if wd.Expired(100, 1) {
		t.Fatal("Expired returned true twice; the caller would report twice")
	}
}

func TestWatchdogEmptySystemResetsClock(t *testing.T) {
	wd := check.NewWatchdog(10)
	// An empty system cannot be wedged: backlog 0 resets the clock.
	if wd.Expired(9, 0) {
		t.Fatal("tripped with no backlog")
	}
	if wd.Expired(18, 1) {
		t.Fatal("tripped 9 cycles after the backlog-0 reset")
	}
	if !wd.Expired(19, 1) {
		t.Fatal("did not trip 10 cycles after the reset")
	}
}

func TestWatchdogProgressResetsClock(t *testing.T) {
	wd := check.NewWatchdog(10)
	for c := int64(0); c < 100; c++ {
		if c%5 == 0 {
			wd.Progress(c) // a flit moves every 5 cycles
		}
		if wd.Expired(c, 3) {
			t.Fatalf("tripped at cycle %d despite steady progress", c)
		}
	}
}

func TestWatchdogRejectsNonPositiveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWatchdog(0) did not panic")
		}
	}()
	check.NewWatchdog(0)
}

// observeAll feeds a flit slice delivered on VC 0 to a stream
// validator, one cycle per flit starting at base.
func observeAll(s *check.FlitStream, fs []flit.Flit, base int64) {
	for i, f := range fs {
		s.Observe(f, 0, base+int64(i))
	}
}

func TestFlitStreamAcceptsWellFormedTraffic(t *testing.T) {
	rec := check.NewRecorder()
	s := check.NewFlitStream(rec, "sink")
	// Two flows' packets legitimately interleave on one link, each on
	// its own VC; within a VC each packet is contiguous.
	a := flit.Packet{Flow: 0, Length: 3, ID: 1}.Flits()
	b := flit.Packet{Flow: 1, Length: 2, ID: 2}.Flits()
	for i, f := range []flit.Flit{a[0], b[0], a[1], b[1], a[2]} {
		s.Observe(f, int(f.Flow), int64(i))
	}
	observeAll(s, flit.Packet{Flow: 0, Length: 1, ID: 3}.Flits(), 10)
	if err := rec.Err(); err != nil {
		t.Fatalf("well-formed stream reported: %v", err)
	}
	if n := s.OpenPackets(); n != 0 {
		t.Errorf("OpenPackets = %d after clean close, want 0", n)
	}
}

func TestFlitStreamDetectsMalformations(t *testing.T) {
	cases := []struct {
		name string
		feed func(s *check.FlitStream)
		frag string
	}{
		{
			"duphead", func(s *check.FlitStream) {
				observeAll(s, fault.MalformedFlits(fault.MalformedDupHead, 0, 6, 1), 0)
			},
			"duplicate head / missing tail",
		},
		{
			"notail-then-next-head", func(s *check.FlitStream) {
				observeAll(s, fault.MalformedFlits(fault.MalformedNoTail, 0, 4, 1), 0)
				observeAll(s, flit.Packet{Flow: 0, Length: 2, ID: 2}.Flits(), 10)
			},
			"duplicate head / missing tail",
		},
		{
			"negative-flow", func(s *check.FlitStream) {
				observeAll(s, fault.MalformedFlits(fault.MalformedBadFlow, 0, 4, 1), 0)
			},
			"negative flow id",
		},
		{
			"body-without-head", func(s *check.FlitStream) {
				s.Observe(flit.Flit{Flow: 0, Kind: flit.Body, Seq: 1, PktID: 9}, 0, 5)
			},
			"without a head",
		},
		{
			"same-flow-interleave", func(s *check.FlitStream) {
				a := flit.Packet{Flow: 0, Length: 3, ID: 1}.Flits()
				b := flit.Packet{Flow: 0, Length: 3, ID: 2}.Flits()
				observeAll(s, []flit.Flit{a[0], b[1]}, 0)
			},
			"interleaved",
		},
		{
			"out-of-order", func(s *check.FlitStream) {
				p := flit.Packet{Flow: 0, Length: 4, ID: 1}.Flits()
				observeAll(s, []flit.Flit{p[0], p[2]}, 0)
			},
			"out of order",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := check.NewRecorder()
			s := check.NewFlitStream(rec, "sink")
			c.feed(s)
			err := rec.Err()
			if err == nil {
				t.Fatal("malformation went undetected")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not mention %q", err, c.frag)
			}
			for _, v := range check.AsViolations(err) {
				if v.Invariant != check.InvStream {
					t.Errorf("violation invariant = %s, want %s", v.Invariant, check.InvStream)
				}
				if v.Cycle < 0 {
					t.Errorf("violation not cycle-stamped: %+v", v)
				}
			}
		})
	}
}

// TestFlitStreamKeysByVC pins that stream state is kept per
// delivering VC: an ejection link multiplexes its VCs flit by flit, so
// two packets of one flow to one sink on different VCs legitimately
// interleave, while the same interleaving on one VC breaks wormhole
// contiguity.
func TestFlitStreamKeysByVC(t *testing.T) {
	a := flit.Packet{Flow: 6, Length: 3, ID: 357}.Flits()
	b := flit.Packet{Flow: 6, Length: 3, ID: 359}.Flits()
	for _, c := range []struct {
		name  string
		vcB   int
		clean bool
	}{{"different VCs", 1, true}, {"one VC", 0, false}} {
		rec := check.NewRecorder()
		s := check.NewFlitStream(rec, "sink 4")
		for i, f := range []flit.Flit{a[0], b[0], a[1], b[1], a[2], b[2]} {
			vc := 0
			if f.PktID == b[0].PktID {
				vc = c.vcB
			}
			s.Observe(f, vc, int64(i))
		}
		if err := rec.Err(); c.clean && err != nil {
			t.Errorf("%s: interleaving reported: %v", c.name, err)
		} else if !c.clean && err == nil {
			t.Errorf("%s: interleaving went undetected", c.name)
		}
		if n := s.OpenPackets(); c.clean && n != 0 {
			t.Errorf("%s: OpenPackets = %d after both tails, want 0", c.name, n)
		}
	}
}

func TestFlitStreamOpenPacketsAfterLostTail(t *testing.T) {
	rec := check.NewRecorder()
	s := check.NewFlitStream(rec, "sink")
	observeAll(s, fault.MalformedFlits(fault.MalformedNoTail, 0, 4, 1), 0)
	if n := s.OpenPackets(); n != 1 {
		t.Errorf("OpenPackets = %d after a lost tail, want 1", n)
	}
}

func TestRecorderCapAndCounter(t *testing.T) {
	reg := obs.NewRegistry()
	rec := check.NewRecorder().Register(reg)
	s := check.NewFlitStream(rec, "sink")
	const n = check.DefaultMaxViolations + 4
	for i := 0; i < n; i++ {
		// Each body-without-head is one violation.
		s.Observe(flit.Flit{Flow: 0, Kind: flit.Body, Seq: 1, PktID: int64(i)}, 0, int64(i))
	}
	if got := rec.Count(); got != n {
		t.Errorf("Count() = %d, want %d (cap counts, does not drop)", got, n)
	}
	if got := len(rec.Violations()); got != check.DefaultMaxViolations {
		t.Errorf("structured violations = %d, want the cap %d", got, check.DefaultMaxViolations)
	}
	if got := reg.Counter("check.violations").Value(); got != n {
		t.Errorf("registry counter = %d, want %d", got, n)
	}
	err := rec.Err()
	if !strings.Contains(err.Error(), "and 4 more") {
		t.Errorf("aggregate error does not mention the %d dropped: %q", 4, err)
	}
	if got := len(check.AsViolations(err)); got != check.DefaultMaxViolations {
		t.Errorf("AsViolations = %d entries, want %d", got, check.DefaultMaxViolations)
	}
}

func TestAsViolations(t *testing.T) {
	if vs := check.AsViolations(errors.New("plain")); vs != nil {
		t.Errorf("AsViolations(plain error) = %v, want nil", vs)
	}
	v := &check.Violation{Cycle: 3, Invariant: check.InvFIFO, Flow: 1, Detail: "x"}
	if vs := check.AsViolations(v); len(vs) != 1 || vs[0] != v {
		t.Errorf("AsViolations(*Violation) = %v, want the violation itself", vs)
	}
}
