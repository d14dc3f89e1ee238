package noc

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// TraceConfig configures the network's packet flight recorder. Zero
// fields take the trace package defaults; Flows is always the node
// count (the network overwrites packet flows with the source node).
type TraceConfig struct {
	// Seed derives the per-packet sampling decision.
	Seed uint64
	// SampleEvery traces roughly one in this many packets (1 = every
	// packet). Zero or negative disables the recorder entirely: no
	// hooks are installed, the mesh pays nothing, and the returned
	// Trace stays empty (including its rollup).
	SampleEvery int
	// RingCap is the per-router hop-record ring capacity.
	RingCap int
	// MeshRingCap is the inject/deliver ring capacity.
	MeshRingCap int
	// EpochCycles is the Jain fairness epoch length.
	EpochCycles int64
	// Reg receives the rollup metrics; nil creates a private registry.
	Reg *obs.Registry
}

// EnableTrace attaches a packet flight recorder to the mesh: every
// router gets a hop recorder, and Send/delivery record inject and
// deliver spans. Call before stepping; the returned Trace yields
// records and rollups after the run (call its Finish first).
//
// Because sampling is a pure function of (Seed, packet id) and every
// recorded field derives from mode-identical events, the trace output
// is byte-identical across event-driven, reference (SetReference),
// and pool-sharded stepping.
func (m *Mesh) EnableTrace(cfg TraceConfig) *trace.Trace {
	tc := trace.Config{
		Seed:        cfg.Seed,
		SampleEvery: cfg.SampleEvery,
		RingCap:     cfg.RingCap,
		MeshRingCap: cfg.MeshRingCap,
		Flows:       m.Nodes(),
		EpochCycles: cfg.EpochCycles,
		Reg:         cfg.Reg,
	}
	t := trace.New(tc)
	if cfg.SampleEvery <= 0 {
		// Tracing off: leave the mesh and routers untouched so a run
		// with the recorder disabled is the run without a recorder.
		return t
	}
	for id, r := range m.routers {
		r.SetTracer(t.AddRouter(id, r.Ports(), m.vcs, m.bufFlits))
	}
	m.tr = t
	return t
}
