package noc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the one differential harness of the package: every
// fast path of the mesh (active set, work-lists, event core, tile-
// sharded commit on any pool) is checked by running a scenario twice,
// fast and under SetReference, and requiring byte-identical
// artifacts.

// delivRec is one ejected flit as the sinks saw it — the byte-level
// artifact the differential tests compare.
type delivRec struct {
	node, flow, seq, vc int
	kind                flit.Kind
	pkt                 int64
	cycle               int64
}

// runArtifacts is everything observable about one scenario run.
// Floats are compared exactly (==): the contract is byte-identity,
// not tolerance.
type runArtifacts struct {
	log      []delivRec
	packets  []int64
	flits    []int64
	cycle    int64
	inFlight int
	latN     int64
	latMean  float64
	latVar   float64
	latMin   float64
	latMax   float64
	// trace holds the flight recorder's rendered exports (nil without
	// one).
	trace []byte
	// Work telemetry: the reference legitimately does more work, so
	// assertArtifactsEqual compares these only when asked to.
	obs     obs.Snapshot
	skipped int64
	// tr is the recorder itself, for tests that inspect records; it is
	// never compared.
	tr *trace.Trace
}

// send is one scheduled injection (Mesh.SendAt).
type send struct {
	at               int64
	src, dst, length int
}

// scenario is one differential workload.
type scenario struct {
	cfg Config
	// graph, when set, builds a graph network (NewGraph) instead of
	// NewMesh(cfg). It is called once per run, so stateful parts — a
	// drain pattern's rng — start afresh each time.
	graph func() Graph
	spec  string // fault spec ("" = fault-free), installed with seed 99
	// inject > 0 selects the injector workload: uniform traffic of 1-6
	// flit packets at 0.15 packets/node/cycle, stepped manually for
	// inject cycles, then a manual drain of at most 6000 cycles (fault
	// scenarios may wedge packets; the wedge must then be identical).
	inject int
	// Otherwise the scheduled workload: sends are released by SendAt
	// while the event core advances through Run(run), then Drain(drain).
	sends      []send
	run, drain int64
	// trace, when non-nil, attaches the flight recorder.
	trace *TraceConfig
}

// newERR is the arbiter every differential scenario uses.
func newERR() sched.Scheduler { return core.New() }

// meshCfg is the 4x4 network of the injector scenarios: 2 VCs of 4
// flits, or 4 VCs on the torus (dateline routing needs VC pairs).
func meshCfg(torus bool, tile int) Config {
	cfg := Config{K: 4, VCs: 2, BufFlits: 4, Tile: tile, NewArb: newERR}
	if torus {
		cfg.Torus, cfg.VCs = true, 4
	}
	return cfg
}

// switchGraph is cmd/switchsim's network: one router whose terminal
// t is port t, with inputs 1..4 contending for output 0, which drains
// through an 8-flit sink passing a flit on with probability 0.4 per
// cycle (drawn from its own seeded stream).
func switchGraph() Graph {
	drain := rng.New(5)
	g := Graph{
		Routers: 1, Ports: 5,
		Route:  func(_, dst int) int { return dst },
		NewArb: func(int) func() sched.Scheduler { return newERR },
		VCs:    2, BufFlits: 4,
		Terminals: []Terminal{{Router: 0, Inject: -1, Eject: 0, DrainFlits: 8,
			Drain: func(int64) bool { return drain.Bernoulli(0.4) }}},
	}
	for in := 1; in <= 4; in++ {
		g.Terminals = append(g.Terminals, Terminal{Router: 0, Inject: in, Eject: in})
	}
	return g
}

// chainGraph is the parking-lot chain of four two-port routers:
// terminal i injects at router i's port 1, terminal 4 is the sink past
// the last router, and router i's weighted ERR arbiters weight the
// through port by its i upstream sources.
func chainGraph() Graph {
	g := Graph{
		Route: func(r, dst int) int {
			if dst == r {
				return 1
			}
			return 0
		},
		NewArb: func(r int) func() sched.Scheduler {
			return func() sched.Scheduler {
				return core.NewWeighted(func(flow int) int64 {
					if flow == 0 && r > 0 {
						return int64(r)
					}
					return 1
				})
			}
		},
		Routers: 4, Ports: 2, VCs: 1, BufFlits: 4,
	}
	for r := 0; r < 4; r++ {
		g.Terminals = append(g.Terminals, Terminal{Router: r, Inject: 1, Eject: 1})
		if r < 3 {
			g.Links = append(g.Links, Link{From: r, Out: 0, To: r + 1, In: 0})
		}
	}
	g.Terminals = append(g.Terminals, Terminal{Router: 3, Inject: -1, Eject: 0})
	return g
}

// sendsTo draws perBurst random packets of 1-6 flits from the sources
// srcs to terminal dst inside a 20-cycle window at each burst start,
// from traffic seed seed.
func sendsTo(srcs []int, dst int, seed uint64, bursts []int64, perBurst int) []send {
	src := rng.New(seed)
	var out []send
	for _, at := range bursts {
		for i := 0; i < perBurst; i++ {
			out = append(out, send{at + int64(src.Intn(20)), srcs[src.Intn(len(srcs))], dst, src.IntRange(1, 6)})
		}
	}
	return out
}

// burstSends draws perBurst random packets of 1-6 flits inside a
// 20-cycle window at each burst start, between distinct nodes of an
// n-node network, from traffic seed seed.
func burstSends(n int, seed uint64, bursts []int64, perBurst int) []send {
	src := rng.New(seed)
	var out []send
	for _, at := range bursts {
		for i := 0; i < perBurst; i++ {
			s, d := src.Intn(n), src.Intn(n)
			if s == d {
				d = (d + 1) % n
			}
			out = append(out, send{at + int64(src.Intn(20)), s, d, src.IntRange(1, 6)})
		}
	}
	return out
}

// runScenario drives s once, as the reference or fast, and returns its
// artifacts. pools lists worker counts (0 = serial): one entry is
// attached for the whole run; several are rotated through one per
// Step, which only the injector workload's manual stepping can do.
func runScenario(t *testing.T, s scenario, reference bool, pools ...int) runArtifacts {
	t.Helper()
	m, err := NewMesh(s.cfg)
	if s.graph != nil {
		m, err = NewGraph(s.graph())
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m.RegisterObs(reg)
	m.SetReference(reference)
	ps := make([]*exec.Pool, len(pools))
	for i, w := range pools {
		if w > 0 {
			ps[i] = exec.NewPool(w)
			defer ps[i].Close()
		}
	}
	if len(ps) > 0 {
		m.SetPool(ps[0])
	}
	var ws []trace.FaultWindow
	if s.spec != "" {
		inj, _, err := m.Protect(s.spec, 99, false)
		if err != nil {
			t.Fatal(err)
		}
		ws = trace.WindowsFromSpec(inj.Spec())
	}
	var tr *trace.Trace
	if s.trace != nil {
		tr = m.EnableTrace(*s.trace)
	}
	var log []delivRec
	for id, sink := range m.sinks {
		id, sink := id, sink
		prev := sink.OnFlit
		sink.OnFlit = func(f flit.Flit, vc int, cycle int64) {
			log = append(log, delivRec{node: id, flow: f.Flow, seq: f.Seq,
				vc: vc, kind: f.Kind, pkt: f.PktID, cycle: cycle})
			if prev != nil {
				prev(f, vc, cycle)
			}
		}
	}
	if s.inject > 0 {
		n := 0
		step := func() {
			if len(ps) > 1 {
				m.SetPool(ps[n%len(ps)])
				n++
			}
			m.Step()
		}
		inj := NewInjector(m, 0.15, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 6), rng.New(7))
		for c := 0; c < s.inject; c++ {
			inj.Step()
			step()
		}
		for i := 0; i < 6000 && m.InFlight() > 0; i++ {
			step()
		}
	} else {
		for _, x := range s.sends {
			m.SendAt(x.at, x.src, x.dst, x.length)
		}
		m.Run(s.run)
		m.Drain(s.drain)
	}
	art := runArtifacts{
		log:      log,
		packets:  append([]int64(nil), m.DeliveredPackets...),
		flits:    append([]int64(nil), m.DeliveredFlits...),
		cycle:    m.Cycle(),
		inFlight: m.InFlight(),
		latN:     m.Latency.N(),
		latMean:  m.Latency.Mean(),
		latVar:   m.Latency.Var(),
		latMin:   m.Latency.Min(),
		latMax:   m.Latency.Max(),
		obs:      reg.Snapshot(),
		skipped:  m.Skipped(),
		tr:       tr,
	}
	if tr != nil {
		tr.Finish(m.Cycle())
		art.trace = traceArtifacts(t, tr, ws)
	}
	return art
}

// traceArtifacts renders everything the recorder exports — JSONL
// spans, the Chrome trace, and the rollup table — into one byte blob.
func traceArtifacts(t *testing.T, tr *trace.Trace, ws []trace.FaultWindow) []byte {
	t.Helper()
	recs := tr.Records()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, recs, ws); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&buf, recs, ws); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rollup().Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertArtifactsEqual requires two runs to agree on every simulation
// artifact, and on the work telemetry too when compareWork is set.
func assertArtifactsEqual(t *testing.T, name string, base, got runArtifacts, compareWork bool) {
	t.Helper()
	base.tr, got.tr = nil, nil
	if !compareWork {
		base.obs, got.obs = obs.Snapshot{}, obs.Snapshot{}
		base.skipped, got.skipped = 0, 0
	}
	if reflect.DeepEqual(base, got) {
		return
	}
	switch {
	case !reflect.DeepEqual(base.log, got.log):
		i := 0
		for i < len(base.log) && i < len(got.log) && base.log[i] == got.log[i] {
			i++
		}
		t.Errorf("%s: delivery logs diverge at index %d (len %d vs %d)", name, i, len(base.log), len(got.log))
	case !bytes.Equal(base.trace, got.trace):
		t.Errorf("%s: trace artifacts diverge (%d vs %d bytes)", name, len(base.trace), len(got.trace))
	case !reflect.DeepEqual(base.obs, got.obs):
		t.Errorf("%s: obs snapshots differ:\n  base %+v\n  got  %+v", name, base.obs, got.obs)
	default:
		base.log, got.log = nil, nil
		t.Errorf("%s: artifacts differ:\n  base %+v\n  got  %+v", name, base, got)
	}
}

// assertMatchesReference runs s under the reference, then fast and
// serial, then fast on each pool list (see runScenario), and requires
// every fast run to reproduce the reference's artifacts byte for byte
// and its noc.cycles total. Work telemetry is compared among the fast
// runs, which must agree on all of it at any worker count. It returns
// the reference and the serial fast run for scenario-specific checks.
func assertMatchesReference(t *testing.T, name string, s scenario, pools ...[]int) (ref, fast runArtifacts) {
	t.Helper()
	ref = runScenario(t, s, true)
	if ref.latN == 0 {
		t.Fatalf("%s: scenario degenerate: nothing delivered", name)
	}
	if ref.skipped != 0 {
		t.Fatalf("%s: reference skipped %d cycles", name, ref.skipped)
	}
	fast = runScenario(t, s, false)
	assertArtifactsEqual(t, name+"/fast", ref, fast, false)
	if a, b := ref.obs.Counters["noc.cycles"], fast.obs.Counters["noc.cycles"]; a != b {
		t.Errorf("%s: obs cycle counters diverge: reference %d, fast %d", name, a, b)
	}
	for _, p := range pools {
		got := runScenario(t, s, false, p...)
		assertArtifactsEqual(t, fmt.Sprintf("%s/pools%v", name, p), fast, got, true)
	}
	return ref, fast
}

// poolVariants are the worker pools the injector scenarios also run
// on. The last swaps pool sizes (and serial stepping) every cycle:
// tile scratch is keyed to tiles, not workers, so no rebuild — and no
// stale bound — may leak between pool sizes.
var poolVariants = [][]int{{1}, {2}, {8}, {2, 8, 0, 3}}
