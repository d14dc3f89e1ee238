package sched

// VirtualClock (Zhang, SIGCOMM 1990) emulates time-division
// multiplexing rather than GPS: each flow owns a virtual clock that
// advances by L / rate_i per packet, reset forward to real time when
// the flow has been idle:
//
//	VC_i = max(now, VC_i) + L / w_i
//
// and packets are served in increasing VC order. O(log n),
// LengthAware, and ClockAware (the max with real time is the defining
// difference from SCFQ).
type VirtualClock struct {
	tagServer
	now float64
}

// NewVirtualClock returns a VirtualClock scheduler; nil weight means
// equal weights (one flit of entitlement per cycle split evenly is
// immaterial — only relative weights matter).
func NewVirtualClock(weight func(flow int) float64) *VirtualClock {
	return &VirtualClock{tagServer: newTagServer("VClock", weight)}
}

// SetNow implements ClockAware.
func (v *VirtualClock) SetNow(cycle int64) { v.now = float64(cycle) }

// OnArrivalLength implements LengthAware: VirtualClock queues the
// finish tag, the flow's new clock, its start clamped to real time.
func (v *VirtualClock) OnArrivalLength(flow int, length int) {
	_, clock := v.stamp(flow, length, v.now)
	v.enqueue(flow, clock)
}

var (
	_ LengthAware = (*VirtualClock)(nil)
	_ ClockAware  = (*VirtualClock)(nil)
)
