// Package obs is the observability substrate of the reproduction: a
// lightweight metrics registry (counters, gauges, fixed-size vectors
// and histograms with approximate quantiles), an adapter that wires a
// Collector onto the engine's existing observation callbacks, JSONL
// run manifests that make every regenerated artifact traceable to the
// run that produced it, a throttled progress renderer for long sweeps,
// and a debug HTTP endpoint (net/http/pprof plus an expvar snapshot of
// the registry) for profiling live runs.
//
// Hot-path discipline: every metric mutation is a fixed number of
// atomic operations on memory allocated at registration time — no
// allocation, no locks, no map lookups. Metric handles are resolved
// once (Registry.Counter, Registry.Histogram, ...) and then mutated
// directly, so an engine forwarding one flit per cycle pays one atomic
// add per cycle for per-flow service accounting.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the value to stay monotone; this is
// not enforced).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 metric that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d and returns the new value.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Vec is a fixed-size vector of int64 cells, for per-flow (or other
// small-cardinality) accounting where a map lookup per event would be
// too slow. Cells are indexed 0..n-1.
type Vec struct {
	vals []atomic.Int64
}

// Add adds d to cell i.
func (v *Vec) Add(i int, d int64) { v.vals[i].Add(d) }

// Value returns cell i.
func (v *Vec) Value(i int) int64 { return v.vals[i].Load() }

// Len returns the number of cells.
func (v *Vec) Len() int { return len(v.vals) }

// Sum returns the sum over all cells.
func (v *Vec) Sum() int64 {
	var s int64
	for i := range v.vals {
		s += v.vals[i].Load()
	}
	return s
}

// Values returns a copy of all cells.
func (v *Vec) Values() []int64 {
	out := make([]int64, len(v.vals))
	for i := range v.vals {
		out[i] = v.vals[i].Load()
	}
	return out
}

// Registry is a named collection of metrics. Registration
// (get-or-create) takes a lock; mutation of the returned handles does
// not. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	vecs     map[string]*Vec
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		vecs:     make(map[string]*Vec),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the one ServeDebug
// exposes by default.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Vec returns the n-cell vector with the given name, creating it on
// first use. An existing vector is returned as-is even if its size
// differs from n.
func (r *Registry) Vec(name string, n int) *Vec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &Vec{vals: make([]atomic.Int64, n)}
		r.vecs[name] = v
	}
	return v
}

// Histogram returns the histogram with the given name, creating it
// with opts on first use. An existing histogram is returned as-is;
// opts are ignored then.
func (r *Registry) Histogram(name string, opts HistogramOpts) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(opts)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Vecs       map[string][]int64           `json:"vecs,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Values are read with
// atomic loads, so a snapshot taken while a simulation runs is safe,
// though not a single consistent cut across metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.vecs) > 0 {
		s.Vecs = make(map[string][]int64, len(r.vecs))
		for name, v := range r.vecs {
			s.Vecs[name] = v.Values()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
