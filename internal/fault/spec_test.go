package fault_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestParseEmptySpecIsNil(t *testing.T) {
	for _, s := range []string{"", "   ", "\t\n"} {
		spec, err := fault.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if spec != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", s, spec)
		}
	}
	// A nil spec formats as the empty string.
	var nilSpec *fault.Spec
	if got := nilSpec.String(); got != "" {
		t.Fatalf("nil Spec String() = %q, want empty", got)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := fault.Parse("drop(p=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Directives) != 1 {
		t.Fatalf("got %d directives, want 1", len(spec.Directives))
	}
	d := spec.Directives[0]
	want := fault.Directive{Kind: "drop", Flow: -1, Port: -1, Router: -1, P: 0.5, MKind: fault.MalformedZeroLen}
	if d != want {
		t.Fatalf("directive = %+v, want %+v", d, want)
	}
}

func TestParseFullSpec(t *testing.T) {
	src := "stall(flow=2, at=100, dur=50); freeze(router=3,at=7); malformed(kind=duphead,p=0.25); corrupt(p=0.1,port=1); drop(p=1,router=2,port=4)"
	spec, err := fault.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != strings.TrimSpace(src) {
		t.Errorf("String() = %q, want the source text", got)
	}
	want := []fault.Directive{
		{Kind: "stall", Flow: 2, Port: -1, Router: -1, At: 100, Dur: 50, MKind: fault.MalformedZeroLen},
		{Kind: "freeze", Flow: -1, Port: -1, Router: 3, At: 7, MKind: fault.MalformedZeroLen},
		{Kind: "malformed", Flow: -1, Port: -1, Router: -1, P: 0.25, MKind: fault.MalformedDupHead},
		{Kind: "corrupt", Flow: -1, Port: 1, Router: -1, P: 0.1, MKind: fault.MalformedZeroLen},
		{Kind: "drop", Flow: -1, Port: 4, Router: 2, P: 1, MKind: fault.MalformedZeroLen},
	}
	if len(spec.Directives) != len(want) {
		t.Fatalf("got %d directives, want %d", len(spec.Directives), len(want))
	}
	for i, d := range spec.Directives {
		if d != want[i] {
			t.Errorf("directive %d = %+v, want %+v", i, d, want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string // required substring of the error
	}{
		{"bogus(p=1)", "unknown directive kind"},
		{"stall", "not kind(key=value,...)"},
		{"stall(at)", "not key=value"},
		{"stall(at=x)", `key "at"`},
		{"stall(at=-1)", "at >= 0"},
		{"stall(dur=-2)", "dur >= 0"},
		{"drop()", "requires p > 0"},
		{"drop(p=0)", "requires p > 0"},
		{"drop(p=1.5)", "outside [0,1]"},
		{"drop(p=-0.1)", "outside [0,1]"},
		{"corrupt(p=0)", "requires p > 0"},
		{"malformed(kind=weird,p=0.5)", "unknown malformed kind"},
		{"malformed(p=0.5,turbo=1)", "unknown key"},
		{";", "empty spec"},
	}
	for _, c := range cases {
		_, err := fault.Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.src, err, c.frag)
		}
	}
}

// TestParseUnknownKindListsValidKinds pins the unknown-kind error
// message: it must name the rejected kind and enumerate every valid
// kind, so a typo in a -faults flag is self-correcting from the error
// alone.
func TestParseUnknownKindListsValidKinds(t *testing.T) {
	cases := []struct {
		src  string
		kind string // the rejected kind the message must quote
	}{
		{"bogus(p=1)", "bogus"},
		{"slows(p=1,ms=2)", "slows"},       // near-miss of a valid kind
		{"STALL(at=1)", "STALL"},           // kinds are case-sensitive
		{"drop(p=0.1);typo(x=1)", "typo"},  // error points at the bad directive
		{" flod (tenant=a,rps=1)", "flod"}, // whitespace-trimmed kind
	}
	for _, c := range cases {
		_, err := fault.Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want unknown-kind error", c.src)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, `unknown directive kind "`+c.kind+`"`) {
			t.Errorf("Parse(%q) error %q does not quote kind %q", c.src, msg, c.kind)
		}
		// The full valid-kind list must appear, in grammar order.
		wantList := "valid kinds: " + strings.Join(fault.Kinds, ", ")
		if !strings.Contains(msg, wantList) {
			t.Errorf("Parse(%q) error %q missing %q", c.src, msg, wantList)
		}
		for _, k := range fault.Kinds {
			if !strings.Contains(msg, k) {
				t.Errorf("Parse(%q) error %q missing valid kind %q", c.src, msg, k)
			}
		}
	}
}

// TestParseServeDirectives covers the service-side grammar extension.
func TestParseServeDirectives(t *testing.T) {
	spec, err := fault.Parse("slow(p=0.1,ms=20);stuck(p=0.01,ms=300,tenant=hog);burst(tenant=hog,rps=250,at=500,dur=1000);flood(tenant=hog,rps=800)")
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Directive{
		{Kind: "slow", Flow: -1, Port: -1, Router: -1, P: 0.1, MS: 20, MKind: fault.MalformedZeroLen},
		{Kind: "stuck", Flow: -1, Port: -1, Router: -1, P: 0.01, MS: 300, Tenant: "hog", MKind: fault.MalformedZeroLen},
		{Kind: "burst", Flow: -1, Port: -1, Router: -1, Tenant: "hog", RPS: 250, At: 500, Dur: 1000, MKind: fault.MalformedZeroLen},
		{Kind: "flood", Flow: -1, Port: -1, Router: -1, Tenant: "hog", RPS: 800, MKind: fault.MalformedZeroLen},
	}
	if len(spec.Directives) != len(want) {
		t.Fatalf("got %d directives, want %d", len(spec.Directives), len(want))
	}
	for i, d := range spec.Directives {
		if d != want[i] {
			t.Errorf("directive %d = %+v, want %+v", i, d, want[i])
		}
	}
}

func TestParseServeDirectiveErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"slow(ms=10)", "requires p > 0"},
		{"slow(p=0.5)", "requires ms > 0"},
		{"stuck(p=0.5,ms=0)", "requires ms > 0"},
		{"burst(rps=10,at=0,dur=5)", "requires tenant"},
		{"burst(tenant=a,at=0,dur=5)", "requires rps > 0"},
		{"burst(tenant=a,rps=10)", "dur > 0"},
		{"flood(tenant=a)", "requires rps > 0"},
		{"flood(rps=5)", "requires tenant"},
	}
	for _, c := range cases {
		_, err := fault.Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.src, err, c.frag)
		}
	}
}

// TestWatchdogBudget pins the one watchdog budget rule: four times the
// longest finite stall or freeze window, never below 1<<16 cycles.
func TestWatchdogBudget(t *testing.T) {
	for _, c := range []struct {
		spec string
		want int64
	}{
		{"", 1 << 16},
		{"stall(at=0,dur=100)", 1 << 16},
		{"stall(port=1,at=0,dur=20000)", 80_000},
		{"freeze(router=5,at=1000,dur=100000)", 400_000},
		{"freeze(router=5,at=1000)", 1 << 16},
		{"drop(p=0.5);stall(at=1,dur=30000);freeze(at=2,dur=20000)", 120_000},
		{"burst(tenant=a,rps=5,at=0,dur=1000000)", 1 << 16},
	} {
		spec, err := fault.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.WatchdogBudget(); got != c.want {
			t.Errorf("%q: budget %d, want %d", c.spec, got, c.want)
		}
	}
}

// TestFamilyCheck pins the one rule of which directives each driver
// family applies: every directive kind is applied by exactly the
// families listed, and a refusal names the directive and the family.
func TestFamilyCheck(t *testing.T) {
	families := map[fault.Family]string{fault.Network: "network kernel", fault.Engine: "single-server engine", fault.Serve: "serve front end"}
	for _, c := range []struct {
		spec    string
		applied []fault.Family
	}{
		{"stall(router=1,at=5)", []fault.Family{fault.Network}},
		{"stall(port=0,at=5)", []fault.Family{fault.Network}},
		{"stall(at=5,dur=10)", []fault.Family{fault.Engine}},
		{"stall(flow=2,at=5)", []fault.Family{fault.Engine}},
		{"freeze(router=0,at=5)", []fault.Family{fault.Network}},
		{"drop(p=0.1)", []fault.Family{fault.Network}},
		{"corrupt(p=0.1)", []fault.Family{fault.Network}},
		{"malformed(kind=zerolen,p=0.1)", []fault.Family{fault.Network, fault.Engine}},
		{"malformed(kind=badflow,p=0.1)", []fault.Family{fault.Network, fault.Engine}},
		{"malformed(kind=notail,p=0.1)", []fault.Family{fault.Network}},
		{"malformed(kind=duphead,p=0.1)", []fault.Family{fault.Network}},
		{"slow(p=0.1,ms=5)", []fault.Family{fault.Serve}},
		{"stuck(p=0.1,ms=5)", []fault.Family{fault.Serve}},
		{"burst(tenant=a,rps=10,at=0,dur=5)", []fault.Family{fault.Serve}},
		{"flood(tenant=a,rps=10)", []fault.Family{fault.Serve}},
	} {
		spec, err := fault.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for f, name := range families {
			applies := false
			for _, a := range c.applied {
				applies = applies || a == f
			}
			err := f.Check(spec)
			switch {
			case applies && err != nil:
				t.Errorf("%s refuses %s: %v", name, c.spec, err)
			case !applies && err == nil:
				t.Errorf("%s accepts %s", name, c.spec)
			case !applies && (!strings.Contains(err.Error(), `"`+c.spec+`"`) || !strings.Contains(err.Error(), name)):
				t.Errorf("%s's refusal of %s does not name both: %v", name, c.spec, err)
			}
		}
	}
	for f := range families {
		if err := f.Check(nil); err != nil {
			t.Errorf("a nil spec is refused: %v", err)
		}
	}
	// A refusal quotes the offending directive's own text, wherever it
	// stands in the spec.
	spec, err := fault.Parse("drop(p=0.1); freeze(router=2,at=5) ;slow(p=0.1,ms=5)")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Network.Check(spec); err == nil || !strings.Contains(err.Error(), `"slow(p=0.1,ms=5)"`) {
		t.Errorf("network refusal = %v, want it to quote the slow directive", err)
	}
}
