package sched

// tagEntry is a flow in the heap of a timestamp discipline (SCFQ,
// STFQ, WFQ, VirtualClock), keyed by its head packet's tag. The heap
// gives them their characteristic O(log n) work complexity — the cost
// the paper's Table 1 charges to "Fair Queuing".
type tagEntry struct {
	flow int
	tag  float64
}

// Less orders by tag, breaking ties on flow id so equal tags are
// served deterministically.
func (a tagEntry) Less(b tagEntry) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.flow < b.flow
}

// weightFn normalises a user-supplied weight function.
func weightFn(w func(flow int) float64) func(flow int) float64 {
	if w == nil {
		return func(int) float64 { return 1 }
	}
	return func(flow int) float64 {
		v := w(flow)
		if v <= 0 {
			panic("sched: non-positive flow weight")
		}
		return v
	}
}
