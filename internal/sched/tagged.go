package sched

import "repro/internal/queue"

// tagServer is the packetized server the timestamp disciplines (SCFQ,
// STFQ, WFQ, VirtualClock) share. Every queued packet carries a tag,
// every backlogged flow waits in a heap under its head packet's tag,
// and the flow with the least tag is served next. The heap gives them
// their characteristic O(log n) work complexity — the cost the paper's
// Table 1 charges to "Fair Queuing". A discipline embeds tagServer and
// adds its OnArrivalLength rule: the reference stamp clamps a start
// tag to (the tag in service, real time or GPS virtual time), and
// whether the start or the finish tag is queued.
type tagServer struct {
	name   string
	weight func(flow int) float64
	heap   queue.Heap[tagEntry]
	// tags and lastFin are indexed by flow id and grown on demand. A
	// packet's tag stays queued until OnPacketDone, so a flow in
	// service has a non-empty queue.
	tags    []queue.Ring[float64] // queued tags per flow, head to tail
	lastFin []float64             // F_i of the flow's most recent arrival
	current int                   // flow in service, or -1
	v       float64               // tag of the packet in (or last in) service
	pending int                   // flow whose OnArrival awaits its OnArrivalLength
}

func newTagServer(name string, weight func(flow int) float64) tagServer {
	return tagServer{name: name, weight: weightFn(weight), current: -1, pending: -1}
}

// Name implements Scheduler.
func (s *tagServer) Name() string { return s.name }

// OnArrival implements Scheduler. The packet is tagged when its length
// arrives in OnArrivalLength.
func (s *tagServer) OnArrival(flow int, wasEmpty bool) {
	if s.pending != -1 {
		panic("sched: " + s.name + " OnArrival without OnArrivalLength for previous packet")
	}
	s.pending = flow
}

// stamp takes the packet OnArrival announced and returns its start
// tag, max(ref, F_i^{k-1}), and its finish tag, start + length/w_i,
// which becomes the flow's F_i^{k-1} for its next packet.
func (s *tagServer) stamp(flow, length int, ref float64) (start, finish float64) {
	if s.pending != flow {
		panic("sched: " + s.name + " OnArrivalLength does not match OnArrival")
	}
	s.pending = -1
	for len(s.tags) <= flow {
		s.tags = append(s.tags, queue.Ring[float64]{})
		s.lastFin = append(s.lastFin, 0)
	}
	start = max(ref, s.lastFin[flow])
	finish = start + float64(length)/s.weight(flow)
	s.lastFin[flow] = finish
	return start, finish
}

// enqueue queues tag behind flow's earlier packets; a flow with none
// queued or in service enters the heap under it.
func (s *tagServer) enqueue(flow int, tag float64) {
	q := &s.tags[flow]
	if q.Len() == 0 {
		s.heap.Push(tagEntry{flow, tag})
	}
	q.Push(tag)
}

// NextFlow implements Scheduler.
func (s *tagServer) NextFlow() int {
	if s.current != -1 {
		panic("sched: " + s.name + ".NextFlow while a packet is in service")
	}
	e := s.heap.Pop()
	s.current, s.v = e.flow, e.tag
	return e.flow
}

// OnPacketDone implements Scheduler: the served packet's tag leaves
// its flow's queue, and a still-backlogged flow re-enters the heap
// under its next head tag.
func (s *tagServer) OnPacketDone(flow int, cost int64, nowEmpty bool) {
	if flow != s.current {
		panic("sched: " + s.name + " completion for a flow not in service")
	}
	s.current = -1
	q := &s.tags[flow]
	q.Pop()
	if q.Len() > 0 {
		s.heap.Push(tagEntry{flow, q.Peek()})
	}
}

// tagEntry is a flow in the tag heap, keyed by its head packet's tag.
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
