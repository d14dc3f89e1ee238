// Package damq implements a Dynamically Allocated Multi-Queue buffer
// (Tamir & Frazier, IEEE ToC 1992) — the buffer organisation the
// paper alludes to when it notes that "a queue may not be the same
// thing as a buffer since a single buffer can implement multiple
// logical queues". One physical pool of flit slots is shared by
// several logical FIFO queues (one per virtual channel); each queue
// is a linked list threaded through the pool, and a configurable
// per-queue reservation guarantees forward progress (and keeps VC
// deadlock-avoidance schemes sound) even when one queue hogs the
// shared space.
//
// All operations are O(1): the free list and the per-queue lists are
// index-linked arrays, exactly as in the hardware design.
package damq

import (
	"fmt"

	"repro/internal/flit"
)

// slot is one buffer entry.
type slot struct {
	f    flit.Flit
	meta int64 // caller-supplied tag (arrival cycle in the router)
	next int   // next slot index in the same list, -1 for none
}

// Buffer is a DAMQ: Total slots shared by Queues logical FIFOs with
// Reserve slots guaranteed to each queue.
type Buffer struct {
	slots   []slot
	free    int // head of the free list
	nfree   int
	head    []int // per-queue head slot, -1 when empty
	tail    []int
	count   []int // per-queue occupancy
	reserve int
	shared  int // slots that are not part of any reservation
	// sharedUsed counts slots drawn from the shared region.
	sharedUsed int
	// cap limits any single queue's occupancy (0 = unlimited). Caps
	// prevent buffer hogging: without one, a blocked wormhole worm can
	// absorb the entire shared region and starve the other queues,
	// which under congested traffic makes sharing *worse* than a
	// static partition.
	cap int
}

// New returns a DAMQ of total slots shared by queues logical queues,
// each with reserve guaranteed slots. It panics if the reservations
// exceed the total.
func New(total, queues, reserve int) *Buffer {
	if total < 1 || queues < 1 || reserve < 0 {
		panic("damq: invalid parameters")
	}
	if queues*reserve > total {
		panic(fmt.Sprintf("damq: reservations %d*%d exceed total %d", queues, reserve, total))
	}
	b := &Buffer{
		slots:   make([]slot, total),
		free:    0,
		nfree:   total,
		head:    make([]int, queues),
		tail:    make([]int, queues),
		count:   make([]int, queues),
		reserve: reserve,
		shared:  total - queues*reserve,
	}
	for i := range b.slots {
		b.slots[i].next = i + 1
	}
	b.slots[total-1].next = -1
	for q := range b.head {
		b.head[q] = -1
		b.tail[q] = -1
	}
	return b
}

// Total returns the pool size in slots.
func (b *Buffer) Total() int { return len(b.slots) }

// Len returns the occupancy of queue q.
func (b *Buffer) Len(q int) int { return b.count[q] }

// Empty reports whether queue q holds no flits.
func (b *Buffer) Empty(q int) bool { return b.count[q] == 0 }

// Free returns the number of unoccupied slots in the pool.
func (b *Buffer) Free() int { return b.nfree }

// SetCap limits any single queue's occupancy to n slots (0 removes
// the limit). The cap must be at least the reservation.
func (b *Buffer) SetCap(n int) {
	if n != 0 && n < b.reserve {
		panic("damq: cap below the per-queue reservation")
	}
	b.cap = n
}

// CanAccept reports whether queue q may accept one more flit: either
// q has unused reserved slots, or the shared region has space — and
// in both cases the queue is below its occupancy cap.
func (b *Buffer) CanAccept(q int) bool {
	if b.cap != 0 && b.count[q] >= b.cap {
		return false
	}
	if b.count[q] < b.reserve {
		return true
	}
	return b.sharedUsed < b.shared
}

// SpaceFor returns the number of flits queue q could accept right
// now: its unused reservation plus the free shared region, clipped
// by the occupancy cap.
func (b *Buffer) SpaceFor(q int) int {
	space := b.shared - b.sharedUsed
	if r := b.reserve - b.count[q]; r > 0 {
		space += r
	}
	if b.cap != 0 {
		if headroom := b.cap - b.count[q]; headroom < space {
			space = headroom
		}
	}
	if space < 0 {
		return 0
	}
	return space
}

// Push appends a flit (with caller meta) to queue q, reporting
// whether it was accepted under the reservation policy.
func (b *Buffer) Push(q int, f flit.Flit, meta int64) bool {
	if !b.CanAccept(q) {
		return false
	}
	if b.free == -1 {
		// CanAccept guaranteed space, so the free list cannot be
		// empty; this is an internal-consistency panic.
		panic("damq: free list empty despite CanAccept")
	}
	if b.count[q] >= b.reserve {
		b.sharedUsed++
	}
	i := b.free
	b.free = b.slots[i].next
	b.nfree--
	b.slots[i] = slot{f: f, meta: meta, next: -1}
	if b.tail[q] == -1 {
		b.head[q] = i
	} else {
		b.slots[b.tail[q]].next = i
	}
	b.tail[q] = i
	b.count[q]++
	return true
}

// Pop removes and returns the head flit of queue q with its meta.
// It panics if the queue is empty.
func (b *Buffer) Pop(q int) (flit.Flit, int64) {
	i := b.head[q]
	if i == -1 {
		panic("damq: Pop from empty queue")
	}
	s := b.slots[i]
	b.head[q] = s.next
	if b.head[q] == -1 {
		b.tail[q] = -1
	}
	b.count[q]--
	if b.count[q] >= b.reserve {
		// The slot being released was accounted to the shared region.
		b.sharedUsed--
	}
	b.slots[i] = slot{next: b.free}
	b.free = i
	b.nfree++
	return s.f, s.meta
}

// Peek returns the head flit of queue q with its meta without
// removing it. It panics if the queue is empty.
func (b *Buffer) Peek(q int) (flit.Flit, int64) {
	i := b.head[q]
	if i == -1 {
		panic("damq: Peek on empty queue")
	}
	return b.slots[i].f, b.slots[i].meta
}
