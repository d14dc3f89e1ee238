// Package queue provides the O(1) data structures used by the
// round-robin schedulers and the wormhole substrates: Ring, a growable
// FIFO, and Heap, a binary min-heap, on which the packet and flit
// FIFOs, the ActiveList of flow ids that the round-robin schedulers
// cycle over, and the network kernel's scheduled-send heap are built;
// and the bitsets of the router's work-lists.
package queue

import (
	"fmt"

	"repro/internal/flit"
)

// PacketQueue is a FIFO of packets on a Ring that also counts the
// flits it holds. The zero value is an empty queue ready to use. All
// operations are amortised O(1).
type PacketQueue struct {
	r Ring[flit.Packet]
	// flits tracks the total number of flits currently queued, so
	// backlog in flits is available without iteration.
	flits int64
}

// Len returns the number of queued packets.
func (q *PacketQueue) Len() int { return q.r.Len() }

// Cap returns the capacity of the backing ring. It grows with bursts
// and shrinks again as they drain, so a queue's live heap is
// proportional to its recent occupancy, not its all-time high-water
// mark.
func (q *PacketQueue) Cap() int { return q.r.Cap() }

// Empty reports whether the queue holds no packets.
func (q *PacketQueue) Empty() bool { return q.r.Len() == 0 }

// FlitBacklog returns the total number of flits across all queued
// packets.
func (q *PacketQueue) FlitBacklog() int64 { return q.flits }

// Push appends a packet to the tail of the queue.
func (q *PacketQueue) Push(p flit.Packet) {
	q.r.Push(p)
	q.flits += int64(p.Length)
}

// Pop removes and returns the packet at the head of the queue.
// It panics if the queue is empty.
func (q *PacketQueue) Pop() flit.Packet {
	p := q.r.Pop()
	q.flits -= int64(p.Length)
	return p
}

// Peek returns the packet at the head of the queue without removing
// it. It panics if the queue is empty.
func (q *PacketQueue) Peek() flit.Packet { return q.r.Peek() }

// String implements fmt.Stringer for debugging.
func (q *PacketQueue) String() string {
	return fmt.Sprintf("PacketQueue{len=%d flits=%d}", q.r.Len(), q.flits)
}
