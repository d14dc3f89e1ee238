// Package fault provides deterministic, seed-derived fault injection
// for the simulators: transient and permanent link stalls, router
// freezes, flit corruption and loss, and malformed-packet traffic.
// The paper's guarantees (Lemma 1, Theorem 3) are proved for a
// fault-free switch; this package manufactures exactly the failures a
// production wormhole network must survive — a stalled downstream
// link holding channels hostage, a wedged switch ASIC, a flaky wire —
// so the invariant checker (package check) can verify that the
// scheduler keeps its bounds and the system keeps making progress, or
// report precisely where it stopped.
//
// Faults are configured with a textual spec (the -faults flag of
// cmd/errsim, cmd/nocsim and cmd/switchsim):
//
//	spec      := directive ( ';' directive )*
//	directive := kind '(' key '=' value ( ',' key '=' value )* ')'
//
// Directives (keys in any order; unlisted keys take the defaults):
//
//	stall(at=C, dur=D, flow=F, router=R, port=P)
//	    Link stall: nothing traverses the link during [at, at+dur).
//	    dur=0 (the default) means permanent. A stall that names
//	    neither router= nor port= is a single-server engine stall:
//	    flow=F stalls only packets of that flow (flow=-1, the default,
//	    stalls every flow). A stall that names either is a network
//	    stall of output port P of router R, where -1 stands for every
//	    router or every output: stall(port=0) stalls output 0 of every
//	    router, stall(router=5) every output of router 5.
//	freeze(router=R, at=C, dur=D)
//	    Router freeze: router R (router=-1 = every router) does
//	    nothing during [at, at+dur); dur=0 means permanent.
//	drop(p=X, port=P)
//	    Each flit traversing output port P (or any port, when -1) is
//	    lost in transit with probability X.
//	corrupt(p=X, port=P)
//	    Each delivered flit has its kind mutated with probability X
//	    (Body->Tail, Tail->Body, Head->Body — premature tails, missing
//	    tails, lost heads).
//	malformed(p=X, kind=K)
//	    The traffic source additionally emits, each cycle with
//	    probability X, a malformed packet of kind K: "zerolen" (no
//	    flits), "badflow" (unroutable flow id), "notail" (flit stream
//	    ends without a tail), "duphead" (a second head mid-packet).
//	    Injection points must reject or survive them.
//	slow(p=X, ms=D, tenant=T) / stuck(p=X, ms=D, tenant=T)
//	    Service-side handler faults for the live front end (the
//	    -faults flag of cmd/errserve): see serve.go.
//	burst(tenant=T, rps=R, at=S, dur=D) / flood(tenant=T, rps=R)
//	    Load-generator directives for adversarial tenants: see
//	    serve.go. In serve mode at/dur are milliseconds of run time.
//
// Each driver family applies its own subset of the directives and
// refuses a spec holding any other (Family.Check): a directive that
// would be parsed and then ignored fails the run instead.
//
// All randomness is drawn from streams derived with rng.Derive from
// the experiment seed, so a faulted run is exactly as repeatable as a
// clean one.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Malformed-packet kinds accepted by the malformed(...) directive.
const (
	MalformedZeroLen = "zerolen"
	MalformedBadFlow = "badflow"
	MalformedNoTail  = "notail"
	MalformedDupHead = "duphead"
)

// Kinds is the list of valid directive kinds, in grammar order.
var Kinds = []string{
	"stall", "freeze", "drop", "corrupt", "malformed",
	"slow", "stuck", "burst", "flood",
}

// Directive is one parsed fault directive.
type Directive struct {
	// Kind is one of Kinds.
	Kind string
	// Flow restricts an engine-mode stall to one flow (-1 = all).
	Flow int
	// Port restricts a router-mode fault to one output port (-1 = all).
	Port int
	// Router restricts a freeze to one router id (-1 = all).
	Router int
	// At is the first faulty cycle of a stall/freeze window.
	At int64
	// Dur is the window length in cycles; 0 means permanent.
	Dur int64
	// P is the per-event probability of drop/corrupt/malformed and of
	// the service-side slow/stuck handler faults.
	P float64
	// MKind is the malformed-packet kind.
	MKind string
	// Tenant restricts a service-side directive to one tenant key
	// ("" = all tenants for slow/stuck; required for burst/flood).
	Tenant string
	// MS is the handler delay of a slow/stuck directive, milliseconds.
	MS int64
	// RPS is the request rate of a burst/flood directive.
	RPS float64
}

// active reports whether a windowed directive is live at cycle.
func (d Directive) active(cycle int64) bool {
	if cycle < d.At {
		return false
	}
	return d.Dur == 0 || cycle < d.At+d.Dur
}

// Spec is a parsed fault specification.
type Spec struct {
	Directives []Directive
	// Source is the textual form the spec was parsed from.
	Source string
	// texts[i] is the source text of Directives[i].
	texts []string
}

// WatchdogBudget is the no-progress budget a deadlock watchdog should
// allow a run under s: max(1<<16, 4x the longest finite stall or
// freeze window), so a transient window is ridden out while a
// permanent one (dur=0) still trips it. A nil spec gets the floor.
func (s *Spec) WatchdogBudget() int64 {
	limit := int64(1 << 16)
	if s == nil {
		return limit
	}
	for _, d := range s.Directives {
		if (d.Kind == "stall" || d.Kind == "freeze") && 4*d.Dur > limit {
			limit = 4 * d.Dur
		}
	}
	return limit
}

// Family is a kind of simulation driver. Each family applies a fixed
// subset of the directives and refuses the rest (Check).
type Family int

const (
	// Network is the noc kernel (nocsim, switchsim, the parking lot,
	// nocsweep, scale).
	Network Family = iota
	// Engine is the single-server engine behind the paper's figures; a
	// packet-level source cannot emit the flit-level malformed kinds.
	Engine
	// Serve is errserve's live front end and its load generator.
	Serve
)

var families = [...]struct{ name, applies string }{
	Network: {"network kernel", "stall with router= or port=, freeze, drop, corrupt, malformed"},
	Engine:  {"single-server engine", "stall without router= or port=, malformed of kind zerolen or badflow"},
	Serve:   {"serve front end", "slow, stuck, burst, flood"},
}

// applies reports whether the family applies d. A network stall names
// a router or a port; an engine stall names neither.
func (f Family) applies(d Directive) bool {
	switch d.Kind {
	case "stall":
		scoped := d.Router != -1 || d.Port != -1
		return f == Network && scoped || f == Engine && !scoped
	case "freeze", "drop", "corrupt":
		return f == Network
	case "malformed":
		return f == Network || f == Engine && (d.MKind == MalformedZeroLen || d.MKind == MalformedBadFlow)
	}
	return f == Serve // slow, stuck, burst, flood
}

// Check refuses a spec holding any directive the family does not
// apply, naming the directive and the family. A nil spec passes.
// Drivers call it where they build their injector.
func (f Family) Check(s *Spec) error {
	if s == nil {
		return nil
	}
	for i, d := range s.Directives {
		if !f.applies(d) {
			text := d.Kind
			if i < len(s.texts) {
				text = s.texts[i]
			}
			return fmt.Errorf("fault: the %s does not apply %q (it applies %s)",
				families[f].name, text, families[f].applies)
		}
	}
	return nil
}

// Parse parses a fault spec. An empty string yields a nil Spec (no
// faults), which every injector constructor accepts.
func Parse(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &Spec{Source: s}
	for _, raw := range strings.Split(s, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		d, err := parseDirective(raw)
		if err != nil {
			return nil, err
		}
		spec.Directives = append(spec.Directives, d)
		spec.texts = append(spec.texts, raw)
	}
	if len(spec.Directives) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", s)
	}
	return spec, nil
}

func parseDirective(raw string) (Directive, error) {
	d := Directive{Flow: -1, Port: -1, Router: -1, MKind: MalformedZeroLen}
	open := strings.IndexByte(raw, '(')
	if open < 0 || !strings.HasSuffix(raw, ")") {
		return d, fmt.Errorf("fault: directive %q is not kind(key=value,...)", raw)
	}
	d.Kind = strings.TrimSpace(raw[:open])
	valid := false
	for _, k := range Kinds {
		if d.Kind == k {
			valid = true
			break
		}
	}
	if !valid {
		return d, fmt.Errorf("fault: unknown directive kind %q (valid kinds: %s)",
			d.Kind, strings.Join(Kinds, ", "))
	}
	body := raw[open+1 : len(raw)-1]
	for _, kv := range strings.Split(body, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return d, fmt.Errorf("fault: %s: argument %q is not key=value", d.Kind, kv)
		}
		key, val := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
		var err error
		switch key {
		case "flow":
			d.Flow, err = strconv.Atoi(val)
		case "port":
			d.Port, err = strconv.Atoi(val)
		case "router":
			d.Router, err = strconv.Atoi(val)
		case "at":
			d.At, err = strconv.ParseInt(val, 10, 64)
		case "dur":
			d.Dur, err = strconv.ParseInt(val, 10, 64)
		case "p":
			d.P, err = strconv.ParseFloat(val, 64)
			if err == nil && (d.P < 0 || d.P > 1) {
				err = fmt.Errorf("probability %v outside [0,1]", d.P)
			}
		case "kind":
			switch val {
			case MalformedZeroLen, MalformedBadFlow, MalformedNoTail, MalformedDupHead:
				d.MKind = val
			default:
				err = fmt.Errorf("unknown malformed kind %q", val)
			}
		case "tenant":
			d.Tenant = val
		case "ms":
			d.MS, err = strconv.ParseInt(val, 10, 64)
		case "rps":
			d.RPS, err = strconv.ParseFloat(val, 64)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return d, fmt.Errorf("fault: %s: key %q: %v", d.Kind, key, err)
		}
	}
	switch d.Kind {
	case "drop", "corrupt", "malformed":
		if d.P <= 0 {
			return d, fmt.Errorf("fault: %s requires p > 0", d.Kind)
		}
	case "stall", "freeze":
		if d.At < 0 || d.Dur < 0 {
			return d, fmt.Errorf("fault: %s window must have at >= 0, dur >= 0", d.Kind)
		}
	case "slow", "stuck":
		if d.P <= 0 {
			return d, fmt.Errorf("fault: %s requires p > 0", d.Kind)
		}
		if d.MS <= 0 {
			return d, fmt.Errorf("fault: %s requires ms > 0", d.Kind)
		}
	case "burst", "flood":
		if d.Tenant == "" {
			return d, fmt.Errorf("fault: %s requires tenant=...", d.Kind)
		}
		if d.RPS <= 0 {
			return d, fmt.Errorf("fault: %s requires rps > 0", d.Kind)
		}
		if d.Kind == "burst" && (d.At < 0 || d.Dur <= 0) {
			return d, fmt.Errorf("fault: burst window must have at >= 0, dur > 0")
		}
	}
	return d, nil
}

// String returns the textual form the spec was parsed from.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	return s.Source
}

// only returns the directives of one kind.
func (s *Spec) only(kind string) []Directive {
	if s == nil {
		return nil
	}
	var out []Directive
	for _, d := range s.Directives {
		if d.Kind == kind {
			out = append(out, d)
		}
	}
	return out
}
