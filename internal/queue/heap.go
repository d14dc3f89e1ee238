package queue

// Heap is a binary min-heap ordered by T's Less. The zero value is an
// empty heap ready to use. Push sifts up and Pop swaps the root with
// the last value and sifts down, exactly as container/heap does, so
// values that compare equal pop in the order container/heap would
// pop them. Push amortises to zero allocations once the backing array
// has grown to the working-set size.
type Heap[T interface{ Less(T) bool }] struct {
	h []T
}

// Len returns the number of queued values.
func (q *Heap[T]) Len() int { return len(q.h) }

// Push queues v.
func (q *Heap[T]) Push(v T) {
	q.h = append(q.h, v)
	for j := len(q.h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.h[j].Less(q.h[i]) {
			break
		}
		q.h[i], q.h[j] = q.h[j], q.h[i]
		j = i
	}
}

// Pop removes and returns the least value. It panics if the heap is
// empty.
func (q *Heap[T]) Pop() T {
	n := len(q.h) - 1
	if n < 0 {
		panic("queue: Pop from empty Heap")
	}
	q.h[0], q.h[n] = q.h[n], q.h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && q.h[j+1].Less(q.h[j]) {
			j++ // right child
		}
		if !q.h[j].Less(q.h[i]) {
			break
		}
		q.h[i], q.h[j] = q.h[j], q.h[i]
		i = j
	}
	v := q.h[n]
	q.h = q.h[:n]
	return v
}

// Peek returns the least value without removing it. It panics if the
// heap is empty.
func (q *Heap[T]) Peek() T {
	if len(q.h) == 0 {
		panic("queue: Peek on empty Heap")
	}
	return q.h[0]
}
