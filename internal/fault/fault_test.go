package fault_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/flit"
)

func mustParse(t *testing.T, s string) *fault.Spec {
	t.Helper()
	spec, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNilInjectorIsInert(t *testing.T) {
	inj := fault.New(nil, 1)
	if inj != nil {
		t.Fatalf("New(nil, ...) = %v, want nil", inj)
	}
	if c := inj.Counters(); c != (fault.Counters{}) {
		t.Errorf("nil injector Counters() = %+v, want zero", c)
	}
	if inj.Spec() != nil {
		t.Error("nil injector Spec() != nil")
	}
	inner := engine.StallFunc(func(flow int) int { return 7 })
	if got := inj.WrapStall(inner); reflect.ValueOf(got).Pointer() != reflect.ValueOf(inner).Pointer() {
		t.Error("nil injector WrapStall did not return inner unchanged")
	}
	if got := inj.WrapSource(nil, 4); got != nil {
		t.Error("nil injector WrapSource(nil) != nil")
	}
	if inj.OutputFault(0, 0) != nil {
		t.Error("nil injector OutputFault != nil")
	}
	if inj.FreezeFunc(0) != nil {
		t.Error("nil injector FreezeFunc != nil")
	}
}

func TestWrapStallPassthroughWithoutEngineDirectives(t *testing.T) {
	// Router-scoped stalls and non-stall directives must not wrap the
	// stall model: the engine fast path stays untouched.
	for _, s := range []string{"drop(p=0.5)", "stall(router=1,at=0,dur=5)", "stall(port=2,at=0,dur=5)"} {
		inj := fault.New(mustParse(t, s), 1)
		if got := inj.WrapStall(nil); got != nil {
			t.Errorf("spec %q: WrapStall(nil) = %T, want nil passthrough", s, got)
		}
	}
}

func TestWrapStallWindow(t *testing.T) {
	inj := fault.New(mustParse(t, "stall(flow=0,at=10,dur=5)"), 1)
	sm := inj.WrapStall(nil)
	if sm == nil {
		t.Fatal("WrapStall(nil) = nil, want the injected stall model")
	}
	cases := []struct {
		flow  int
		cycle int64
		want  int
	}{
		{0, 9, 0},  // before the window
		{0, 10, 5}, // window start: full remaining window
		{0, 14, 1}, // last faulty cycle
		{0, 15, 0}, // window over
		{1, 12, 0}, // other flows unaffected
	}
	var wantCycles int64
	for _, c := range cases {
		if got := sm.FlitStall(c.flow, c.cycle); got != c.want {
			t.Errorf("FlitStall(%d, %d) = %d, want %d", c.flow, c.cycle, got, c.want)
		}
		wantCycles += int64(c.want)
	}
	if got := inj.Counters().StallCycles; got != wantCycles {
		t.Errorf("StallCycles = %d, want %d", got, wantCycles)
	}
}

func TestWrapStallPermanentAndLayered(t *testing.T) {
	inj := fault.New(mustParse(t, "stall(at=100)"), 1) // dur=0: permanent, all flows
	sm := inj.WrapStall(engine.StallFunc(func(flow int) int { return 2 }))
	if got := sm.FlitStall(3, 99); got != 2 {
		t.Errorf("before the fault the inner model must show through: got %d, want 2", got)
	}
	if got := sm.FlitStall(3, 100); got < 1<<60 {
		t.Errorf("permanent stall = %d, want effectively infinite", got)
	}
}

func TestWrapSourceMalformed(t *testing.T) {
	inj := fault.New(mustParse(t, "malformed(kind=zerolen,p=1);malformed(kind=badflow,p=1)"), 1)
	src := inj.WrapSource(nil, 4)
	got := src.Arrivals(0, nil)
	if len(got) != 2 {
		t.Fatalf("got %d packets, want 2 (one per directive)", len(got))
	}
	if got[0].Length != 0 {
		t.Errorf("zerolen packet length = %d, want 0", got[0].Length)
	}
	if got[1].Flow != 4 {
		t.Errorf("badflow packet flow = %d, want 4 (out of range for 4 flows)", got[1].Flow)
	}
	if c := inj.Counters().Malformed; c != 2 {
		t.Errorf("Malformed counter = %d, want 2", c)
	}
}

func TestWrapSourcePassthroughForFlitLevelKinds(t *testing.T) {
	// notail/duphead are flit-stream malformations a packet-granularity
	// source cannot express; with only those the source is unwrapped.
	inj := fault.New(mustParse(t, "malformed(kind=notail,p=1);malformed(kind=duphead,p=1)"), 1)
	if got := inj.WrapSource(nil, 4); got != nil {
		t.Fatalf("WrapSource = %T, want nil passthrough", got)
	}
}

func TestWrapSourceDeterministic(t *testing.T) {
	emissions := func(seed uint64) []int {
		inj := fault.New(mustParse(t, "malformed(kind=zerolen,p=0.3)"), seed)
		src := inj.WrapSource(nil, 4)
		var out []int
		for c := int64(0); c < 200; c++ {
			out = append(out, len(src.Arrivals(c, nil)))
		}
		return out
	}
	if !reflect.DeepEqual(emissions(42), emissions(42)) {
		t.Error("same seed produced different malformed-emission patterns")
	}
}

func TestOutputFaultMatching(t *testing.T) {
	inj := fault.New(mustParse(t, "drop(router=1,port=2,p=0.5)"), 1)
	if inj.OutputFault(1, 2) == nil {
		t.Error("OutputFault(1,2) = nil, want a fault for the targeted output")
	}
	if inj.OutputFault(1, 1) != nil || inj.OutputFault(0, 2) != nil {
		t.Error("OutputFault matched a router/port the directive does not target")
	}
	wild := fault.New(mustParse(t, "corrupt(p=0.5)"), 1)
	if wild.OutputFault(7, 3) == nil {
		t.Error("wildcard corrupt directive must target every output")
	}
	// Engine-mode stalls (no router, no port) never become router
	// output faults; port-scoped stalls do, on every router.
	eng := fault.New(mustParse(t, "stall(flow=0,at=0,dur=5)"), 1)
	if eng.OutputFault(0, 0) != nil {
		t.Error("engine-mode stall leaked into a router output fault")
	}
	ported := fault.New(mustParse(t, "stall(port=1,at=0,dur=5)"), 1)
	of := ported.OutputFault(3, 1)
	if of == nil {
		t.Fatal("port-scoped stall must target port 1 on every router")
	}
	if of.Stalled(0) != 5 || of.Stalled(4) != 1 || of.Stalled(5) != 0 {
		t.Error("Stalled window wrong: want [0,5) stalled, 5 clear")
	}
}

func TestOutputFaultDropAndCorrupt(t *testing.T) {
	inj := fault.New(mustParse(t, "drop(p=1);corrupt(p=1)"), 1)
	of := inj.OutputFault(0, 0)
	f := flit.Flit{Flow: 0, Kind: flit.Body}
	for c := int64(0); c < 10; c++ {
		if !of.Drop(f, c) {
			t.Fatalf("p=1 drop kept a flit at cycle %d", c)
		}
	}
	kinds := map[flit.Kind]flit.Kind{
		flit.Body:     flit.Tail,
		flit.Tail:     flit.Body,
		flit.Head:     flit.Body,
		flit.HeadTail: flit.Head,
	}
	for in, want := range kinds {
		got := of.Corrupt(flit.Flit{Kind: in}, 0)
		if got.Kind != want {
			t.Errorf("Corrupt(%v) = %v, want %v", in, got.Kind, want)
		}
	}
	c := inj.Counters()
	if c.Dropped != 10 || c.Corrupted != int64(len(kinds)) {
		t.Errorf("counters = %+v, want 10 dropped, %d corrupted", c, len(kinds))
	}
}

func TestOutputFaultDropDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		inj := fault.New(mustParse(t, "drop(p=0.5)"), seed)
		of := inj.OutputFault(2, 3)
		var out []bool
		for c := int64(0); c < 100; c++ {
			out = append(out, of.Drop(flit.Flit{}, c))
		}
		return out
	}
	if !reflect.DeepEqual(pattern(9), pattern(9)) {
		t.Error("same seed produced different drop patterns")
	}
}

func TestFreezeFunc(t *testing.T) {
	inj := fault.New(mustParse(t, "freeze(router=2,at=10,dur=5)"), 1)
	if inj.FreezeFunc(1) != nil {
		t.Error("FreezeFunc matched a router the directive does not target")
	}
	f := inj.FreezeFunc(2)
	if f == nil {
		t.Fatal("FreezeFunc(2) = nil, want the freeze predicate")
	}
	for cycle, want := range map[int64]int64{9: 0, 10: 5, 14: 1, 15: 0} {
		if got := f(cycle); got != want {
			t.Errorf("freeze(%d) = %d, want %d", cycle, got, want)
		}
	}
	wild := fault.New(mustParse(t, "freeze(at=0)"), 1) // all routers, permanent
	g := wild.FreezeFunc(7)
	if g == nil || g(1_000_000) < 1<<60 {
		t.Error("wildcard permanent freeze must apply to every router forever")
	}
}

func TestMalformedFlits(t *testing.T) {
	if fs := fault.MalformedFlits(fault.MalformedZeroLen, 0, 8, 0); fs != nil {
		t.Errorf("zerolen = %d flits, want none", len(fs))
	}
	bad := fault.MalformedFlits(fault.MalformedBadFlow, 3, 4, 0)
	for i, f := range bad {
		if f.Flow != -1 {
			t.Errorf("badflow flit %d has flow %d, want -1", i, f.Flow)
		}
	}
	noTail := fault.MalformedFlits(fault.MalformedNoTail, 0, 5, 0)
	if len(noTail) != 4 {
		t.Fatalf("notail = %d flits, want 4 (tail truncated)", len(noTail))
	}
	for _, f := range noTail {
		if f.Kind == flit.Tail || f.Kind == flit.HeadTail {
			t.Error("notail stream still contains a tail")
		}
	}
	dup := fault.MalformedFlits(fault.MalformedDupHead, 0, 6, 0)
	heads := 0
	for _, f := range dup {
		if f.Kind == flit.Head {
			heads++
		}
	}
	if heads != 2 {
		t.Errorf("duphead stream has %d heads, want 2", heads)
	}
	// Lengths below 2 are clamped so every kind can materialise.
	if fs := fault.MalformedFlits(fault.MalformedNoTail, 0, 1, 0); len(fs) != 1 {
		t.Errorf("notail with length 1 = %d flits, want 1 (clamped to 2, tail cut)", len(fs))
	}
}
