package noc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// saturatedTorus is an 8x8 torus with the scale workload's 2-flit
// buffers: at the rates below most injection attempts are refused.
func saturatedTorus() Config {
	return Config{K: 8, VCs: 2, BufFlits: 2, Torus: true, NewArb: newERR}
}

// TestParkedInjectionsMatchReferenceTorus drives a saturated torus
// whose front ends are refused most cycles, with a router frozen
// mid-run, serially and on every pool variant: parking refused front
// ends until their port drains must reproduce the reference, which
// polls every pending front end every cycle.
func TestParkedInjectionsMatchReferenceTorus(t *testing.T) {
	ref, fast := assertMatchesReference(t, "parked-torus", scenario{
		cfg:    saturatedTorus(),
		spec:   "freeze(router=27,at=300,dur=400)",
		inject: 1200,
		rate:   0.3,
	}, poolVariants...)
	r, f := ref.obs.Counters["noc.injections_refused"], fast.obs.Counters["noc.injections_refused"]
	if f == 0 || f >= r {
		t.Fatalf("refused injections: reference %d, fast %d; want 0 < fast < reference", r, f)
	}
}

// TestParkedInjectionsMatchReferenceDAMQ saturates a mesh of shared
// (DAMQ) input buffers whose shared region is two flits: a front end
// refused on one VC is often refused because the other VC's flits hold
// the shared slots, so a flit leaving on that other VC is what makes
// room. The wake must therefore fire on a pop on any VC of the port.
func TestParkedInjectionsMatchReferenceDAMQ(t *testing.T) {
	ref, fast := assertMatchesReference(t, "parked-damq", scenario{
		cfg:    Config{K: 4, VCs: 2, BufFlits: 1, SharedBufFlits: 4, NewArb: newERR},
		inject: 2500,
		rate:   0.3,
	}, []int{2})
	if r, f := ref.obs.Counters["noc.injections_refused"], fast.obs.Counters["noc.injections_refused"]; f == 0 || f >= r {
		t.Fatalf("refused injections: reference %d, fast %d; want 0 < fast < reference", r, f)
	}
}

// pollRefusals returns how many front ends the reference's next
// inject phase will find refused: every front end with a pending flit
// tries it, on its packet's VC (or the VC the next packet will get),
// and its port alone decides.
func pollRefusals(m *Mesh) (n int64) {
	for t := range m.inj {
		st := &m.inj[t]
		vc := st.vc
		if st.flits == nil {
			if st.queue.Empty() {
				continue
			}
			vc = st.nextVC % m.injVCs
		}
		if !st.r.CanAccept(st.port, vc) {
			n++
		}
	}
	return n
}

// TestInjectionsRefusedCounts pins the refusal counter on a saturated
// torus: the reference counts one refusal per polled front end per
// cycle its port is full; the fast mesh refuses a front end at most
// once per wake (plus its first try); both deliver identically; and
// noc.injections_refused reports the accessor's count.
func TestInjectionsRefusedCounts(t *testing.T) {
	run := func(reference bool) (*Mesh, int64) {
		m, err := NewMesh(saturatedTorus())
		if err != nil {
			t.Fatal(err)
		}
		m.SetReference(reference)
		reg := obs.NewRegistry()
		m.RegisterObs(reg)
		defer func() {
			if got := reg.Counter("noc.injections_refused").Value(); got != m.InjectionsRefused() {
				t.Errorf("noc.injections_refused = %d, InjectionsRefused = %d", got, m.InjectionsRefused())
			}
		}()
		inj := NewInjector(m, 0.3, Uniform{Nodes: m.Nodes()}, rng.NewUniform(1, 8), rng.New(3))
		inj.MaxPending = 4
		var polled int64
		for c := 0; c < 2000; c++ {
			inj.Step()
			polled += pollRefusals(m)
			m.Step()
		}
		return m, polled
	}
	ref, polled := run(true)
	fast, _ := run(false)
	if got := ref.InjectionsRefused(); got != polled || got == 0 {
		t.Errorf("reference refused %d injections, want the %d polls found refused", got, polled)
	}
	if got, bound := fast.InjectionsRefused(), fast.wakes+int64(fast.Nodes()); got > bound {
		t.Errorf("fast mesh refused %d injections, more than its %d wakes plus %d front ends", got, fast.wakes, fast.Nodes())
	}
	if fast.InjectionsRefused()*4 > ref.InjectionsRefused() {
		t.Errorf("parking saved little: fast %d vs reference %d refusals", fast.InjectionsRefused(), ref.InjectionsRefused())
	}
	if !reflect.DeepEqual(ref.DeliveredFlits, fast.DeliveredFlits) || ref.Latency != fast.Latency || ref.InFlight() != fast.InFlight() {
		t.Errorf("deliveries differ: reference %d packets (mean latency %v), fast %d (%v)",
			ref.Latency.N(), ref.Latency.Mean(), fast.Latency.N(), fast.Latency.Mean())
	}
}

// TestNewGraphRefusesSharedInjectionPort: a refused injection waits
// for its port alone to drain, so NewGraph must refuse an injection
// port that a link or a second terminal also feeds.
func TestNewGraphRefusesSharedInjectionPort(t *testing.T) {
	chain := chainGraph()
	chain.Terminals[1].Inject.Port = 0 // router 1's port 0 is the link from router 0
	twice := switchGraph()
	twice.Terminals = append(twice.Terminals, Terminal{Inject: Port{Router: 0, Port: 2}, Eject: Port{Router: 0, Port: 2}})
	for name, g := range map[string]Graph{"link": chain, "terminal": twice} {
		_, err := NewGraph(g)
		if err == nil || !strings.Contains(err.Error(), "also feeds") {
			t.Errorf("%s: NewGraph error %v, want a shared injection port refused", name, err)
		}
	}
	for name, g := range map[string]Graph{"chain": chainGraph(), "switch": switchGraph()} {
		if _, err := NewGraph(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
