package queue

// ActiveList is the FIFO of active flow ids maintained by round-robin
// schedulers (ERR Figure 1, DRR). It supports O(1) membership test,
// O(1) add-to-tail, and O(1) remove-from-head, which is what Theorem 1
// of the paper relies on for the O(1) work complexity of ERR.
//
// Implementation: a Ring of flow ids plus a membership bitmap indexed
// by flow id. The same flow may not appear twice, so the ring is
// reserved as large as the bitmap and never grows or shrinks between
// bitmap growths. The zero value is an empty list; flows of any
// non-negative id may be added (the bitmap grows on demand).
type ActiveList struct {
	ring   Ring[int]
	member []bool
}

// Len returns the number of flows in the list.
func (l *ActiveList) Len() int { return l.ring.Len() }

// Empty reports whether the list has no flows.
func (l *ActiveList) Empty() bool { return l.ring.Len() == 0 }

// Contains reports whether flow id is currently in the list.
// This is ExistsInActiveList from the paper's pseudo-code.
func (l *ActiveList) Contains(id int) bool {
	return id >= 0 && id < len(l.member) && l.member[id]
}

// PushTail appends flow id at the tail. It panics if the flow is
// already present (schedulers must check Contains first; a double add
// would break the round-robin invariant silently).
func (l *ActiveList) PushTail(id int) {
	if id < 0 {
		panic("queue: negative flow id")
	}
	if l.Contains(id) {
		panic("queue: flow already in ActiveList")
	}
	if id >= len(l.member) {
		nm := make([]bool, max(id+1, 2*len(l.member)))
		copy(nm, l.member)
		l.member = nm
		l.ring.Reserve(len(nm))
	}
	l.ring.Push(id)
	l.member[id] = true
}

// PopHead removes and returns the flow id at the head. It panics if
// the list is empty.
func (l *ActiveList) PopHead() int {
	id := l.ring.Pop()
	l.member[id] = false
	return id
}

// PeekHead returns the flow id at the head without removing it.
// It panics if the list is empty.
func (l *ActiveList) PeekHead() int { return l.ring.Peek() }

// Snapshot returns the flow ids in FIFO order (head first). Intended
// for tests and tracing; O(n).
func (l *ActiveList) Snapshot() []int {
	out := make([]int, l.ring.Len())
	for i := range out {
		out[i] = *l.ring.At(i)
	}
	return out
}
