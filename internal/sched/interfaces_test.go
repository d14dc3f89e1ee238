package sched_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestOptionalInterfaces pins each discipline's name and which of the
// optional interfaces it implements. The engine, the router and the
// harnesses decide behaviour by type-asserting them: a SetNow would be
// called every cycle, a HeadOfLineSafe would let the discipline
// arbitrate a wormhole output, and a LengthAware one is refused under
// a stall model. Gaining or losing one through an embedded type is a
// behaviour change.
func TestOptionalInterfaces(t *testing.T) {
	cases := []struct {
		s                      sched.Scheduler
		name                   string
		length, clock, holSafe bool
	}{
		{sched.NewFCFS(), "FCFS", false, false, false},
		{sched.NewPBRR(), "PBRR", false, false, true},
		{sched.NewWRR(nil), "WRR", false, false, true},
		{sched.NewIWRR(nil), "IWRR", false, false, true},
		{sched.NewDRR(64, nil), "DRR", true, false, false},
		{sched.NewOptDRR([]int64{64}), "DRR-OPT", true, false, false},
		{sched.NewSCFQ(nil), "SCFQ", true, false, false},
		{sched.NewSTFQ(nil), "STFQ", true, false, false},
		{sched.NewWFQ(nil), "WFQ", true, true, false},
		{sched.NewVirtualClock(nil), "VClock", true, true, false},
		{core.New(), "ERR", false, false, true},
		{core.NewWeighted(func(f int) int64 { return int64(f + 1) }), "ERR", false, false, true},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.name {
			t.Errorf("%T: Name() = %q, want %q", c.s, got, c.name)
		}
		_, length := c.s.(sched.LengthAware)
		_, clock := c.s.(sched.ClockAware)
		_, holSafe := c.s.(sched.HeadOfLineArb)
		if length != c.length || clock != c.clock || holSafe != c.holSafe {
			t.Errorf("%s (%T): LengthAware %v, ClockAware %v, HeadOfLineArb %v; want %v, %v, %v",
				c.name, c.s, length, clock, holSafe, c.length, c.clock, c.holSafe)
		}
	}
}
