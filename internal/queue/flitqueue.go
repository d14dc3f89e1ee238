package queue

import "repro/internal/flit"

// FlitQueue is a FIFO of flits on a Ring, optionally bounded by a
// capacity (in flits) so it can model a finite hardware buffer with
// credit-based flow control. The zero value is an unbounded empty
// queue; use NewFlitQueue for a bounded one, which allocates its
// capacity once. All operations are amortised O(1).
type FlitQueue struct {
	r   Ring[flit.Flit]
	cap int // 0 means unbounded
}

// NewFlitQueue returns a flit FIFO bounded to capacity flits.
// capacity <= 0 yields an unbounded queue.
func NewFlitQueue(capacity int) *FlitQueue {
	q := &FlitQueue{cap: max(capacity, 0)}
	q.r.Reserve(q.cap)
	return q
}

// Len returns the number of queued flits.
func (q *FlitQueue) Len() int { return q.r.Len() }

// Empty reports whether the queue holds no flits.
func (q *FlitQueue) Empty() bool { return q.r.Len() == 0 }

// Cap returns the capacity in flits (0 = unbounded).
func (q *FlitQueue) Cap() int { return q.cap }

// Full reports whether a bounded queue has no free slots. Unbounded
// queues are never full.
func (q *FlitQueue) Full() bool { return q.cap > 0 && q.r.Len() >= q.cap }

// Free returns the number of free slots; for unbounded queues it
// returns a large positive number.
func (q *FlitQueue) Free() int {
	if q.cap == 0 {
		return int(^uint(0) >> 1) // MaxInt
	}
	return q.cap - q.r.Len()
}

// Push appends a flit. It reports whether the flit was accepted; a
// full bounded queue rejects the flit (the caller holds it upstream,
// which is exactly wormhole back-pressure).
func (q *FlitQueue) Push(f flit.Flit) bool {
	if q.Full() {
		return false
	}
	q.r.Push(f)
	return true
}

// Pop removes and returns the flit at the head. It panics if empty.
func (q *FlitQueue) Pop() flit.Flit { return q.r.Pop() }

// Peek returns the head flit without removing it. It panics if empty.
func (q *FlitQueue) Peek() flit.Flit { return q.r.Peek() }
