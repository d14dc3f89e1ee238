package queue

import "math"

// EventNever is the At of an event that will never fire — the
// NextAt() of an empty heap, and the sentinel next-event reporters
// return when only an external stimulus can wake them.
const EventNever = math.MaxInt64

// Event is one timestamped wake-up in a discrete-event simulation:
// something identified by (Kind, ID) — a fault-window edge on a
// router, a scheduled arrival, an externally registered wake — that
// can change simulation state at cycle At and at no cycle before it.
type Event struct {
	// At is the cycle the event fires.
	At int64
	// ID is the entity the event belongs to (router id, node id).
	ID int32
	// Kind discriminates event sources sharing one heap.
	Kind uint8
}

// Less is the total order of the event queue: fire cycle, then
// entity id, then kind. The order below At is a determinism contract,
// not an optimisation: same-cycle events must pop in a fixed
// (id, kind) order no matter what order they were pushed in, so every
// consumer that drains due events observes one canonical sequence
// (pinned by TestEventHeapDeterministicOrder and raced in CI).
func (a Event) Less(b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Kind < b.Kind
}

// EventHeap is a deterministic min-heap of Events ordered by
// (At, ID, Kind). Duplicates are allowed (pushing the same edge twice
// is harmless — it pops twice, and identical events are idempotent by
// contract), and because the order is total over the struct, the pop
// sequence of any multiset of events is independent of insertion
// order even though a binary heap is not stable. The zero value is an
// empty heap.
type EventHeap struct {
	Heap[Event]
}

// NextAt returns the fire cycle of the earliest event, or EventNever
// when the heap is empty — min() composes without an emptiness check.
func (q *EventHeap) NextAt() int64 {
	if q.Len() == 0 {
		return EventNever
	}
	return q.Peek().At
}

// DropDue pops every event with At <= now, returning the fire cycle
// of the earliest remaining one (EventNever when none remain). It is
// the lazy-expiry primitive for consumers that use the heap purely as
// a "next interesting cycle" bound: edges the simulation has already
// stepped past carry no information and are shed on the next query.
func (q *EventHeap) DropDue(now int64) int64 {
	for q.Len() > 0 && q.Peek().At <= now {
		q.Pop()
	}
	return q.NextAt()
}
