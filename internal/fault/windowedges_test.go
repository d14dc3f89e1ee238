package fault_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
)

// permanent is the least block length a hook may report for a
// permanent window: far beyond any simulated horizon.
const permanent = int64(1) << 60

// TestWindowEdges pins the block lengths the fault hooks report at
// each window edge: 0 before a window opens, the whole window at its
// opening cycle, 1 at its last cycle, 0 once it has closed, and the
// longest remainder where two windows overlap. A permanent window
// reports a block beyond any horizon; drop and corrupt directives
// block nothing.
func TestWindowEdges(t *testing.T) {
	spec := mustParse(t,
		"stall(port=1,at=100,dur=50);stall(port=1,at=140,dur=30);freeze(router=2,at=100,dur=50);stall(port=0,at=200);drop(router=1,p=0.5);corrupt(p=0.1)")
	inj := fault.New(spec, 1)
	link := inj.OutputFault(1, 1).Stalled
	freeze := inj.FreezeFunc(2)
	for _, c := range []struct {
		cycle         int64
		link, freezeK int64
	}{
		{99, 0, 0},
		{100, 50, 50},
		{139, 11, 11},
		{140, 30, 10}, // the second stall outlasts the first
		{149, 21, 1},
		{150, 20, 0},
		{169, 1, 0},
		{170, 0, 0},
	} {
		if got := link(c.cycle); got != c.link {
			t.Errorf("Stalled(%d) = %d, want %d", c.cycle, got, c.link)
		}
		if got := freeze(c.cycle); got != c.freezeK {
			t.Errorf("freeze(%d) = %d, want %d", c.cycle, got, c.freezeK)
		}
	}
	perm := inj.OutputFault(3, 0).Stalled
	if perm(199) != 0 || perm(200) < permanent || perm(1<<40) < permanent {
		t.Errorf("permanent stall from 200: Stalled(199, 200, 2^40) = %d, %d, %d",
			perm(199), perm(200), perm(1<<40))
	}
	if got := fault.New(mustParse(t, "drop(p=0.5);corrupt(p=0.1)"), 1).OutputFault(0, 0).Stalled(0); got != 0 {
		t.Errorf("drop/corrupt-only output reports a %d-cycle stall", got)
	}
}

// TestWindowEdgesNoOverflow pins the At+Dur overflow guard: a window
// closing past the permanent-stall horizon (math.MaxInt64>>2) blocks
// from its opening cycle on like a permanent one, in every hook and in
// Directive.End. A duration of math.MaxInt64 used to wrap At+Dur
// negative, so the window never opened and the run was fault-free.
func TestWindowEdgesNoOverflow(t *testing.T) {
	near := int64(math.MaxInt64>>2) - 10
	for _, s := range []string{
		"stall(at=10,dur=9223372036854775807)",
		"stall(port=1,at=10,dur=9223372036854775807)",
		"freeze(at=10,dur=9223372036854775807)",
		fmt.Sprintf("stall(port=1,at=%d,dur=100)", near),
	} {
		spec := mustParse(t, s)
		d := spec.Directives[0]
		if end := d.End(); end != math.MaxInt64 {
			t.Errorf("%s: End() = %d, want math.MaxInt64 (permanent)", s, end)
		}
		inj := fault.New(spec, 1)
		var hook func(int64) int64
		switch {
		case d.Kind == "freeze":
			hook = inj.FreezeFunc(0)
		case d.Port == 1:
			hook = inj.OutputFault(0, 1).Stalled
		default:
			sm := inj.WrapStall(nil)
			hook = func(c int64) int64 { return int64(sm.FlitStall(0, c)) }
		}
		if got := hook(d.At - 1); got != 0 {
			t.Errorf("%s: blocks %d cycles before it opens", s, got)
		}
		for _, c := range []int64{d.At, d.At + 1_000_000} {
			if got := hook(c); got < permanent || got > math.MaxInt64>>2 {
				t.Errorf("%s: blocks %d cycles at %d, want a permanent block of at most 2^61", s, got, c)
			}
		}
	}
}

// TestWindowEdgesNil exercises the nil-injector and no-window paths:
// nothing to install, nothing blocked.
func TestWindowEdgesNil(t *testing.T) {
	var in *fault.Injector
	if in.FreezeFunc(0) != nil || in.OutputFault(0, 0) != nil || in.WrapStall(nil) != nil {
		t.Fatal("nil injector installs a fault hook")
	}
	inj := fault.New(mustParse(t, "drop(p=0.5)"), 1)
	if inj.FreezeFunc(0) != nil || inj.WrapStall(nil) != nil {
		t.Fatal("drop-only spec installs a freeze or engine stall hook")
	}
	if got := inj.OutputFault(0, 0).Stalled(1000); got != 0 {
		t.Fatalf("drop-only output reports a %d-cycle stall", got)
	}
}
