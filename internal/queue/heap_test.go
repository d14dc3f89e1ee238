package queue

import (
	"container/heap"
	"testing"
)

// keyed is a heap value whose order looks at key alone, so values
// with equal keys tie and id tells them apart.
type keyed struct{ key, id int }

func (a keyed) Less(b keyed) bool { return a.key < b.key }

// refHeap is the same order under container/heap.
type refHeap []keyed

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *refHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// FuzzHeapMatchesContainerHeap pushes and pops one script through a
// Heap and through container/heap and requires the same value, id
// included, from every Pop and Peek. Each script byte with its low bit
// clear pushes the key (b>>1)%8, so most keys tie; a set bit pops (or,
// on an empty heap, checks that Pop and Peek panic). Equal keys come
// out in container/heap's order only if the sift-up, the sift-down's
// choice of child and the swap-with-last pop are container/heap's own.
func FuzzHeapMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{0, 2, 0, 4, 0, 2, 6, 0, 1, 0, 2, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1})
	f.Add([]byte{14, 12, 10, 8, 6, 4, 2, 0, 0, 2, 4, 6, 1, 1, 1, 3, 3, 3, 5, 5, 5, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		var h Heap[keyed]
		var ref refHeap
		for id, b := range script {
			if b&1 == 0 {
				v := keyed{key: int(b>>1) % 8, id: id}
				h.Push(v)
				heap.Push(&ref, v)
			} else if ref.Len() == 0 {
				assertPanics(t, "Pop on empty Heap", func() { h.Pop() })
				assertPanics(t, "Peek on empty Heap", func() { h.Peek() })
			} else if got, want := h.Pop(), heap.Pop(&ref).(keyed); got != want {
				t.Fatalf("step %d: Pop = %+v, container/heap pops %+v", id, got, want)
			}
			if h.Len() != ref.Len() {
				t.Fatalf("step %d: Len = %d, want %d", id, h.Len(), ref.Len())
			}
			if ref.Len() > 0 && h.Peek() != ref[0] {
				t.Fatalf("step %d: Peek = %+v, want %+v", id, h.Peek(), ref[0])
			}
		}
		for ref.Len() > 0 {
			if got, want := h.Pop(), heap.Pop(&ref).(keyed); got != want {
				t.Fatalf("drain: Pop = %+v, container/heap pops %+v", got, want)
			}
		}
	})
}
