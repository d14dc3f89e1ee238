package metrics

import (
	"math"

	"repro/internal/rng"
)

// ServiceLog records, cycle by cycle, which flow the server forwarded
// a flit from, in a compact form that supports Sent_i(t1, t2) queries
// for arbitrary intervals. It is the data structure behind Figure 6's
// "average relative fairness over 10,000 randomly chosen intervals".
//
// Storage: one byte per cycle (flow id, or Idle) plus per-flow
// checkpointed prefix counts every stride cycles, so a query costs
// O(stride) and a 4-million-cycle run costs ~4 MB.
type ServiceLog struct {
	n      int
	stride int
	seq    []uint8
	// checkpoints[k*n+f] = flits served to flow f in cycles
	// [0, k*stride): one flat table, n counts per stride.
	checkpoints []int64
	totals      []int64
	idle        int64
	stalled     int64
}

// Idle marks a cycle in which no flit was forwarded and no packet
// occupied the output.
const Idle = 0xFF

// Stalled marks a cycle in which a packet occupied the output but
// downstream congestion blocked its flit — occupancy without service,
// the wormhole phenomenon. Stalled cycles count as busy time in
// Utilization; recording them as Idle (the historical behaviour)
// undercounts how long the output was actually held.
const Stalled = 0xFE

// NewServiceLog returns a log for n flows (n <= 254; 0xFE and 0xFF
// are the Stalled and Idle markers) with the given checkpoint stride
// (0 means a sensible default).
func NewServiceLog(n, stride int) *ServiceLog {
	return NewServiceLogCap(n, stride, 0)
}

// NewServiceLogCap is NewServiceLog with a capacity hint: the
// expected number of recorded cycles (0 for unknown). The hint
// preallocates the per-cycle sequence and the checkpoint table so a
// multi-million-cycle run records without append growth — on a
// 4M-cycle Figure 6 run the unhinted log re-copies its 4 MB sequence
// ~20 times as append doubles it (see BenchmarkServiceLogRecord), and
// every checkpoint lands in the preallocated table, so recording
// within the hint never allocates. Recording beyond the hint is fine;
// the log just grows again.
func NewServiceLogCap(n, stride int, expectCycles int64) *ServiceLog {
	if n < 1 || n > 254 {
		panic("metrics: ServiceLog supports 1..254 flows")
	}
	if stride <= 0 {
		stride = 4096
	}
	l := &ServiceLog{
		n:      n,
		stride: stride,
		totals: make([]int64, n),
	}
	if expectCycles > 0 {
		l.seq = make([]uint8, 0, expectCycles)
		l.checkpoints = make([]int64, 0, (expectCycles/int64(stride)+1)*int64(n))
	}
	l.checkpoints = append(l.checkpoints, l.totals...)
	return l
}

// Record appends one cycle: the flow served, Idle, or Stalled.
func (l *ServiceLog) Record(flow int) {
	if flow == Idle {
		l.seq = append(l.seq, Idle)
		l.idle++
	} else if flow == Stalled {
		l.seq = append(l.seq, Stalled)
		l.stalled++
	} else {
		if flow < 0 || flow >= l.n {
			panic("metrics: ServiceLog flow out of range")
		}
		l.seq = append(l.seq, uint8(flow))
		l.totals[flow]++
	}
	if len(l.seq)%l.stride == 0 {
		l.checkpoints = append(l.checkpoints, l.totals...)
	}
}

// Cycles returns the number of recorded cycles.
func (l *ServiceLog) Cycles() int64 { return int64(len(l.seq)) }

// Total returns the cumulative flits served to flow over the whole
// log.
func (l *ServiceLog) Total(flow int) int64 { return l.totals[flow] }

// IdleCycles returns the number of recorded cycles in which the
// output was neither forwarding nor occupied.
func (l *ServiceLog) IdleCycles() int64 { return l.idle }

// StalledCycles returns the number of recorded cycles in which the
// output was occupied by a packet but blocked by downstream
// congestion.
func (l *ServiceLog) StalledCycles() int64 { return l.stalled }

// Utilization returns the fraction of recorded cycles in which the
// output was busy — forwarding a flit or occupied by a stalled
// packet. It is 0 for an empty log.
func (l *ServiceLog) Utilization() float64 {
	if len(l.seq) == 0 {
		return 0
	}
	return float64(int64(len(l.seq))-l.idle) / float64(len(l.seq))
}

// CumServed returns the flits served to flow in cycles [0, t).
func (l *ServiceLog) CumServed(flow int, t int64) int64 {
	if t <= 0 {
		return 0
	}
	if t > int64(len(l.seq)) {
		t = int64(len(l.seq))
	}
	k := t / int64(l.stride)
	c := l.checkpoints[k*int64(l.n)+int64(flow)]
	for i := k * int64(l.stride); i < t; i++ {
		if l.seq[i] == uint8(flow) {
			c++
		}
	}
	return c
}

// Sent returns Sent_flow(t1, t2), the flits served to flow in cycles
// [t1, t2).
func (l *ServiceLog) Sent(flow int, t1, t2 int64) int64 {
	return l.CumServed(flow, t2) - l.CumServed(flow, t1)
}

// remainder adds sign times the count of each logged byte in
// [k*stride, t) to h, with t clamped to the log, and returns
// checkpoint k: CumServed(f, t) is its count for f plus flow f's
// count in h. The bytes go round-robin to four histograms so that a
// run of one flow's flits does not serialize on a single counter; the
// Idle and Stalled markers land in cells no flow reads.
func (l *ServiceLog) remainder(t, sign int64, h *[4][256]int64) []int64 {
	t = max(0, min(t, int64(len(l.seq))))
	k := t / int64(l.stride)
	seg := l.seq[k*int64(l.stride) : t]
	for len(seg) >= 4 {
		h[0][seg[0]] += sign
		h[1][seg[1]] += sign
		h[2][seg[2]] += sign
		h[3][seg[3]] += sign
		seg = seg[4:]
	}
	for _, b := range seg {
		h[0][b] += sign
	}
	return l.checkpoints[k*int64(l.n) : (k+1)*int64(l.n)]
}

// FM returns the fairness measure of the interval [t1, t2): the
// maximum |Sent_i - Sent_j| over all flow pairs (Definition 1 of the
// paper, with all flows assumed active). Every flow's Sent comes from
// one pass over each endpoint's checkpoint remainder, O(stride + n),
// where per-flow Sent queries would cost O(n * stride).
func (l *ServiceLog) FM(t1, t2 int64) int64 {
	var h [4][256]int64
	from := l.remainder(t1, -1, &h)
	to := l.remainder(t2, 1, &h)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for f := 0; f < l.n; f++ {
		s := to[f] - from[f] + h[0][f] + h[1][f] + h[2][f] + h[3][f]
		lo, hi = min(lo, s), max(hi, s)
	}
	return hi - lo
}

// AvgFMRandomIntervals estimates the average relative fairness over k
// intervals drawn uniformly at random within [0, Cycles()), the
// Figure 6 statistic. Intervals of zero length are redrawn.
func (l *ServiceLog) AvgFMRandomIntervals(k int, src *rng.Source) float64 {
	cycles := l.Cycles()
	if cycles < 2 || k < 1 {
		return 0
	}
	var sum float64
	for i := 0; i < k; i++ {
		var a, b int64
		for a == b {
			// Int63n, not Intn: beyond-2^31-cycle runs would truncate
			// or overflow int on 32-bit platforms.
			a = src.Int63n(cycles)
			b = src.Int63n(cycles)
		}
		if a > b {
			a, b = b, a
		}
		sum += float64(l.FM(a, b))
	}
	return sum / float64(k)
}
