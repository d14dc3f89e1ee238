package queue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventHeapBasics(t *testing.T) {
	var q EventHeap
	if q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if q.NextAt() != EventNever {
		t.Fatalf("empty NextAt = %d, want EventNever", q.NextAt())
	}
	q.Push(Event{At: 30, ID: 1})
	q.Push(Event{At: 10, ID: 2})
	q.Push(Event{At: 20, ID: 3})
	if q.NextAt() != 10 {
		t.Fatalf("NextAt = %d, want 10", q.NextAt())
	}
	for _, want := range []int64{10, 20, 30} {
		if got := q.Pop(); got.At != want {
			t.Fatalf("Pop().At = %d, want %d", got.At, want)
		}
	}
	if q.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestEventHeapDropDue(t *testing.T) {
	var q EventHeap
	for _, at := range []int64{5, 10, 10, 15, 40} {
		q.Push(Event{At: at})
	}
	if next := q.DropDue(10); next != 15 {
		t.Fatalf("DropDue(10) = %d, want 15", next)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after DropDue, want 2", q.Len())
	}
	if next := q.DropDue(100); next != EventNever {
		t.Fatalf("DropDue(100) = %d, want EventNever", next)
	}
}

func TestEventHeapDuplicates(t *testing.T) {
	var q EventHeap
	e := Event{At: 7, ID: 3, Kind: 1}
	q.Push(e)
	q.Push(e)
	if q.Pop() != e || q.Pop() != e {
		t.Fatal("duplicate events not both returned")
	}
}

// TestEventHeapDeterministicOrder pins the event-queue determinism
// contract: same-cycle events pop in a fixed (id, kind) order at ANY
// heap insertion order. The heap's comparison is a total order over
// the whole struct, so even though a binary heap is not stable, the
// pop sequence of a multiset of events is canonical. This test runs
// under -race in the CI parallel-determinism job.
func TestEventHeapDeterministicOrder(t *testing.T) {
	// Events clustered on a handful of cycles, with colliding ids and
	// kinds (including exact duplicates) to stress the tie-breaks.
	var events []Event
	for _, at := range []int64{100, 100, 200, 300} {
		for id := int32(0); id < 6; id++ {
			for kind := uint8(0); kind < 3; kind++ {
				events = append(events, Event{At: at, ID: id, Kind: kind})
			}
		}
	}
	want := append([]Event(nil), events...)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		perm := append([]Event(nil), events...)
		switch trial {
		case 0: // ascending insertion
		case 1: // descending insertion
			for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
				perm[i], perm[j] = perm[j], perm[i]
			}
		default:
			r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		var q EventHeap
		for _, e := range perm {
			q.Push(e)
		}
		for i := range want {
			if got := q.Pop(); got != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v (insertion order changed the pop order)",
					trial, i, got, want[i])
			}
		}
	}
}
