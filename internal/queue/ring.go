package queue

// Ring is a FIFO backed by a growable ring buffer. The zero value is
// an empty ring ready to use. Push doubles a full ring, and Pop halves
// a ring above shrinkCap slots once occupancy falls to a quarter of
// it, so a burst's backing array is not kept live for the rest of the
// run; a ring never shrinks below the capacity given to Reserve. All
// operations are amortised O(1).
type Ring[T any] struct {
	buf              []T
	head, size, keep int
}

// shrinkCap is the smallest ring Pop shrinks; below this the saving
// is not worth the copy.
const shrinkCap = 64

// Len returns the number of queued values.
func (r *Ring[T]) Len() int { return r.size }

// Cap returns the number of slots in the backing array.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Reserve grows the ring to at least n slots and keeps it from ever
// shrinking below n. A ring reserved for its largest occupancy never
// allocates again.
func (r *Ring[T]) Reserve(n int) {
	r.keep = max(r.keep, n)
	if n > len(r.buf) {
		r.resize(n)
	}
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.size == len(r.buf) {
		r.resize(max(2*len(r.buf), 8))
	}
	i := r.head + r.size
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.size++
}

// Pop removes and returns the value at the head. It panics if the
// ring is empty.
func (r *Ring[T]) Pop() T {
	if r.size == 0 {
		panic("queue: Pop from empty Ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release for GC hygiene
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.size--
	// Halving at <= 1/4 occupancy keeps the move amortised O(1) and
	// leaves slack against grow/shrink thrash at the boundary.
	if n := len(r.buf); n > shrinkCap && n/2 >= r.keep && r.size <= n/4 {
		r.resize(n / 2)
	}
	return v
}

// Peek returns the value at the head without removing it. It panics
// if the ring is empty.
func (r *Ring[T]) Peek() T {
	if r.size == 0 {
		panic("queue: Peek on empty Ring")
	}
	return r.buf[r.head]
}

// At returns a pointer to the i-th value from the head (0 is the
// head), valid until the next Push or Pop. It panics unless
// 0 <= i < Len().
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.size {
		panic("queue: Ring index out of range")
	}
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// resize moves the queued values, head first, into a new array of n
// slots (n >= Len()).
func (r *Ring[T]) resize(n int) {
	nb := make([]T, n)
	k := copy(nb, r.buf[r.head:min(r.head+r.size, len(r.buf))])
	copy(nb[k:], r.buf[:r.size-k])
	r.buf, r.head = nb, 0
}
