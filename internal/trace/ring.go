package trace

import "repro/internal/queue"

// ring is a fixed-capacity record buffer that overwrites its oldest
// entry when full, reporting overwrites through a drop hook. The
// capacity is allocated once; append never allocates, which keeps the
// recorder out of the simulation's steady-state allocation budget.
type ring struct {
	q      queue.Ring[Record]
	onDrop func()
}

func (r *ring) init(capacity int, onDrop func()) {
	r.q.Reserve(capacity)
	r.onDrop = onDrop
}

func (r *ring) len() int { return r.q.Len() }

func (r *ring) append(rec Record) {
	if r.q.Len() == r.q.Cap() {
		// Overwrite the oldest: keep the most recent window, which is
		// what a flight recorder is for.
		r.q.Pop()
		r.onDrop()
	}
	r.q.Push(rec)
}

// each visits the buffered records oldest-first without consuming
// them.
func (r *ring) each(fn func(Record)) {
	for i := 0; i < r.q.Len(); i++ {
		fn(*r.q.At(i))
	}
}
