package wormhole

import (
	"fmt"
	"unsafe"

	"repro/internal/queue"
	"repro/internal/sched"
)

// This file is the router arena: flat, preallocated backing storage
// for a batch of routers with identical dimensions (ports, VCs, buffer
// depth). A mesh built router-by-router with make() scatters each
// router's FIFOs, credit counters, and work-list bitmaps across the
// heap; at a million routers that is tens of millions of small
// objects, poor locality for tile-owned stepping, and real GC scan
// pressure. The arena instead computes every per-router slice size
// up front, allocates one slab per element type, and carves routers
// out of the slabs in construction order — so a caller that constructs
// a tile's routers consecutively gets that tile's entire hot state
// contiguous in memory, and Bytes reports exactly what a router
// footprint costs.

// slab is a typed bump allocator over one flat backing slice.
type slab[T any] struct{ buf []T }

func newSlab[T any](n int) slab[T] { return slab[T]{buf: make([]T, n)} }

// take carves the next n elements as a full slice (len == cap == n,
// so an erroneous append cannot bleed into the neighbour's storage).
func (s *slab[T]) take(n int) []T {
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// takeCap carves capacity elements but returns a slice of the given
// length (scratch lists that start empty and grow up to capacity).
func (s *slab[T]) takeCap(length, capacity int) []T {
	out := s.buf[:length:capacity]
	s.buf = s.buf[capacity:]
	return out
}

// Arena preallocates the backing storage for n routers sharing the
// same Ports/VCs/BufFlits/SharedBufFlits dimensions. Construct it
// once, then build each router with Arena.NewRouter; routers built
// consecutively are consecutive in memory. Scheduler instances
// (Config.NewArb) and DAMQ shared buffers remain individually heap
// allocated — they are opaque to this package — and are not counted
// by Bytes.
type Arena struct {
	ports, vcs, bufFlits int
	shared               bool
	n, used              int
	bytes                int64

	routers slab[Router]
	bufs    slab[portBuf]
	fifos   slab[vcFIFO]
	entries slab[entry]
	arbs    slab[sched.Scheduler]
	locks   slab[lock]
	eps     slab[Endpoint]
	ints    slab[int]
	creds   slab[creditReturn]
	rptrs   slab[*Router]
	gates   slab[*portBuf]
	bools   slab[bool]
	faults  slab[OutputFault]
	words   slab[uint64]
	outs    slab[outHot]
	int32s  slab[int32]
}

// NewArena returns an arena sized for n routers of cfg's dimensions
// (only Ports, VCs, BufFlits, and SharedBufFlits are consulted).
func NewArena(cfg Config, n int) *Arena {
	p, v, b := cfg.Ports, cfg.VCs, cfg.BufFlits
	shared := cfg.SharedBufFlits > 0
	entriesPer := p * v * b
	if shared {
		entriesPer = 0 // DAMQ mode: flit storage lives in the damq buffers
	}
	// Per-router element counts by type.
	nInts := 2*p*v + 2*p + p // crd, eligible, outPort, credUpPort, usedList cap
	nPtrs := 2 * p           // outR, credUpR
	nBools := p + p*v        // usedInput, inTraced
	nWords := (p+63)/64 + (p*v+63)/64
	a := &Arena{
		ports: p, vcs: v, bufFlits: b, shared: shared, n: n,

		routers: newSlab[Router](n),
		bufs:    newSlab[portBuf](n * p),
		fifos:   newSlab[vcFIFO](n * p * v),
		entries: newSlab[entry](n * entriesPer),
		arbs:    newSlab[sched.Scheduler](n * p * v),
		locks:   newSlab[lock](n * p * v),
		eps:     newSlab[Endpoint](n * p),
		ints:    newSlab[int](n * nInts),
		creds:   newSlab[creditReturn](n * p),
		rptrs:   newSlab[*Router](n * nPtrs),
		gates:   newSlab[*portBuf](n * p),
		bools:   newSlab[bool](n * nBools),
		faults:  newSlab[OutputFault](n * p),
		words:   newSlab[uint64](n * nWords),
		outs:    newSlab[outHot](n * p),
		int32s:  newSlab[int32](n * p * v),
	}
	per := int64(unsafe.Sizeof(Router{})) +
		int64(p)*int64(unsafe.Sizeof(portBuf{})) +
		int64(p*v)*int64(unsafe.Sizeof(vcFIFO{})) +
		int64(entriesPer)*int64(unsafe.Sizeof(entry{})) +
		int64(p*v)*int64(unsafe.Sizeof(sched.Scheduler(nil))) +
		int64(p*v)*int64(unsafe.Sizeof(lock{})) +
		int64(p)*int64(unsafe.Sizeof(Endpoint(nil))) +
		int64(nInts)*int64(unsafe.Sizeof(int(0))) +
		int64(p)*int64(unsafe.Sizeof(creditReturn(nil))) +
		int64(nPtrs)*int64(unsafe.Sizeof((*Router)(nil))) +
		int64(p)*int64(unsafe.Sizeof((*portBuf)(nil))) +
		int64(nBools) +
		int64(p)*int64(unsafe.Sizeof(OutputFault(nil))) +
		int64(nWords)*8 +
		int64(p)*int64(unsafe.Sizeof(outHot{})) +
		int64(p*v)*4
	a.bytes = per * int64(n)
	return a
}

// Bytes returns the total arena-managed footprint in bytes (the
// per-router cost times the router count; excludes schedulers and
// DAMQ buffers, which the arena does not manage).
func (a *Arena) Bytes() int64 { return a.bytes }

// Routers returns how many routers have been carved so far.
func (a *Arena) Routers() int { return a.used }

// NewRouter validates cfg, carves the next router out of the arena,
// and initialises it exactly as the package-level NewRouter would.
// cfg's dimensions must match the arena's; Route, OutVC, and NewArb
// may differ per router.
func (a *Arena) NewRouter(id int, cfg Config) (*Router, error) {
	if cfg.Ports < 1 || cfg.VCs < 1 || cfg.BufFlits < 1 {
		return nil, fmt.Errorf("wormhole: invalid config %+v", cfg)
	}
	if cfg.VCs > 64 {
		// The per-port occupancy and per-output allocation bitmasks
		// pack VC state into single words.
		return nil, fmt.Errorf("wormhole: %d VCs per port exceeds the supported 64", cfg.VCs)
	}
	if cfg.NewArb == nil || cfg.Route == nil {
		return nil, fmt.Errorf("wormhole: NewArb and Route are required")
	}
	if cfg.SharedBufFlits > 0 && cfg.SharedBufFlits < cfg.VCs*cfg.BufFlits {
		return nil, fmt.Errorf("wormhole: shared buffer %d smaller than reservations %d*%d",
			cfg.SharedBufFlits, cfg.VCs, cfg.BufFlits)
	}
	if cfg.Ports != a.ports || cfg.VCs != a.vcs || cfg.BufFlits != a.bufFlits ||
		(cfg.SharedBufFlits > 0) != a.shared {
		return nil, fmt.Errorf("wormhole: config dimensions %+v do not match the arena's", cfg)
	}
	if a.used >= a.n {
		return nil, fmt.Errorf("wormhole: arena of %d routers exhausted", a.n)
	}
	a.used++
	p, v := cfg.Ports, cfg.VCs
	r := &a.routers.take(1)[0]
	r.cfg = cfg
	r.id = id
	r.in = a.bufs.take(p)
	r.arbs = a.arbs.take(p * v)
	r.locks = a.locks.take(p * v)
	r.out = a.eps.take(p)
	r.crd = a.ints.take(p * v)
	r.credUp = a.creds.take(p)
	r.outR = a.rptrs.take(p)
	r.outPort = a.ints.take(p)
	r.credUpR = a.rptrs.take(p)
	r.credUpPort = a.ints.take(p)
	r.gateOut = a.gates.take(p)
	r.eligible = a.ints.take(p * v)
	r.usedInput = a.bools.take(p)
	r.outFault = a.faults.take(p)
	r.pendingOut = queue.BitsetOver(a.words.take((p + 63) / 64))
	r.grantable = queue.BitsetOver(a.words.take((p*v + 63) / 64))
	r.outs = a.outs.take(p)
	r.inLockOut = a.int32s.take(p * v)
	r.inTraced = a.bools.take(p * v)
	r.usedList = a.ints.takeCap(0, p)
	r.gateSnapCycle = -1
	for i := range r.inLockOut {
		r.inLockOut[i] = -1
	}
	for port := 0; port < p; port++ {
		initPortBuf(&r.in[port], a, v, cfg.BufFlits, cfg.SharedBufFlits, cfg.SharedBufCap)
		for vc := 0; vc < v; vc++ {
			arb := cfg.NewArb()
			if _, ok := arb.(sched.LengthAware); ok {
				return nil, fmt.Errorf("wormhole: arbiter %q requires a-priori packet lengths and cannot arbitrate a wormhole output", arb.Name())
			}
			hol, ok := arb.(sched.HeadOfLineArb)
			if !ok {
				return nil, fmt.Errorf("wormhole: arbiter %q does not satisfy the head-of-line arbitration contract (sched.HeadOfLineArb)", arb.Name())
			}
			r.arbs[port*v+vc] = hol
		}
	}
	return r, nil
}
