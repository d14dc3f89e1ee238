package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/queue"
)

// White-box tests of the shared machinery: the tag heap order and
// the queue.Ring and queue.Heap every discipline builds on.

func TestTagHeapOrdering(t *testing.T) {
	var h queue.Heap[tagEntry]
	h.Push(tagEntry{3, 5.0})
	h.Push(tagEntry{1, 2.0})
	h.Push(tagEntry{2, 9.0})
	if e := h.Peek(); e.flow != 1 || e.tag != 2.0 {
		t.Fatalf("Peek = %+v", e)
	}
	order := []int{}
	for h.Len() > 0 {
		order = append(order, h.Pop().flow)
	}
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

func TestTagHeapTieBreakDeterministic(t *testing.T) {
	var h queue.Heap[tagEntry]
	h.Push(tagEntry{7, 1.0})
	h.Push(tagEntry{2, 1.0})
	h.Push(tagEntry{5, 1.0})
	order := []int{}
	for h.Len() > 0 {
		order = append(order, h.Pop().flow)
	}
	// Equal tags break ties by flow id.
	want := []int{2, 5, 7}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order %v, want %v", order, want)
		}
	}
}

// TestTagHeapPanics checks the empty-heap panics and that a flow is in
// a timestamp discipline's heap at most once: a flow's later arrivals,
// while it is queued or in service, extend its tag FIFO instead.
func TestTagHeapPanics(t *testing.T) {
	var h queue.Heap[tagEntry]
	assertPanics(t, "Pop empty", func() { h.Pop() })
	assertPanics(t, "Peek empty", func() { h.Peek() })
	type tagged struct {
		s    LengthAware
		heap *queue.Heap[tagEntry]
	}
	scfq, stfq, wfq, vc := NewSCFQ(nil), NewSTFQ(nil), NewWFQ(nil), NewVirtualClock(nil)
	for _, c := range []tagged{{scfq, &scfq.heap}, {stfq, &stfq.heap}, {wfq, &wfq.heap}, {vc, &vc.heap}} {
		arrive := func(flow int) {
			c.s.OnArrival(flow, false)
			c.s.OnArrivalLength(flow, 4)
		}
		arrive(1)
		arrive(1)
		arrive(2)
		if n := c.heap.Len(); n != 2 {
			t.Fatalf("%s: heap holds %d entries for 2 queued flows", c.s.Name(), n)
		}
		f := c.s.NextFlow()
		arrive(f)
		if n := c.heap.Len(); n != 1 {
			t.Fatalf("%s: heap holds %d entries with flow %d in service", c.s.Name(), n, f)
		}
	}
}

// Property: the tag heap pops tags in non-decreasing order for any
// insertion sequence of unique flows.
func TestTagHeapSortedProperty(t *testing.T) {
	prop := func(tags []float64) bool {
		var h queue.Heap[tagEntry]
		for i, tg := range tags {
			if math.IsNaN(tg) {
				tg = 0 // NaN tags are meaningless; normalise
			}
			h.Push(tagEntry{i, tg})
		}
		last := math.Inf(-1)
		for h.Len() > 0 {
			tg := h.Pop().tag
			if tg < last {
				return false
			}
			last = tg
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFifoIntWrap(t *testing.T) {
	var q queue.Ring[int]
	for round := 0; round < 20; round++ {
		for i := 0; i < 5; i++ {
			q.Push(round*5 + i)
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != round*5+i {
				t.Fatalf("round %d: got %d", round, got)
			}
		}
	}
	if q.Len() != 0 {
		t.Error("fifo not empty after balanced ops")
	}
	assertPanics(t, "pop empty", func() { q.Pop() })
	assertPanics(t, "peek empty", func() { q.Peek() })
}

func TestFifoF64Wrap(t *testing.T) {
	var q queue.Ring[float64]
	for i := 0; i < 100; i++ {
		q.Push(float64(i))
	}
	for i := 0; i < 100; i++ {
		if q.Peek() != float64(i) {
			t.Fatalf("peek at %d wrong", i)
		}
		if q.Pop() != float64(i) {
			t.Fatalf("pop at %d wrong", i)
		}
	}
	assertPanics(t, "pop empty", func() { q.Pop() })
}

func TestWeightFnValidation(t *testing.T) {
	w := weightFn(func(int) float64 { return -1 })
	assertPanics(t, "negative weight", func() { w(0) })
	def := weightFn(nil)
	if def(42) != 1 {
		t.Error("nil weight fn should default to 1")
	}
}

func TestDRRPerFlowQuantum(t *testing.T) {
	d := NewDRR(0, func(flow int) int64 { return int64(flow+1) * 10 })
	d.OnArrival(0, true)
	d.OnArrivalLength(0, 10)
	d.OnArrival(1, true)
	d.OnArrivalLength(1, 20)
	// Flow 0: quantum 10 fits its 10-flit packet; flow 1: quantum 20
	// fits its 20-flit packet. Both serve on first visit.
	if f := d.NextFlow(); f != 0 {
		t.Fatalf("first flow %d", f)
	}
	d.OnPacketDone(0, 10, true)
	if f := d.NextFlow(); f != 1 {
		t.Fatalf("second flow %d", f)
	}
	d.OnPacketDone(1, 20, true)
}

func TestNewDRRValidation(t *testing.T) {
	assertPanics(t, "quantum 0", func() { NewDRR(0, nil) })
}

// A per-flow quantum function returning < 1 must panic at first use,
// naming the flow and value — before the fix, NextFlow's rotate loop
// spun forever because the deficit never grew to fit a packet.
func TestDRRPerFlowQuantumValidation(t *testing.T) {
	d := NewDRR(0, func(flow int) int64 { return int64(flow) }) // flow 0 -> 0
	d.OnArrival(0, true)
	d.OnArrivalLength(0, 4)
	assertPanicsWith(t, "per-flow quantum 0", "sched: DRR quantum 0 < 1 for flow 0",
		func() { d.NextFlow() })
}

// Validation panics must name the offending flow and value across
// the round-robin family, so a bad weight table is diagnosable from
// the message alone.
func TestRoundRobinValidationMessages(t *testing.T) {
	cases := []struct {
		name, want string
		trigger    func()
	}{
		{"WRR zero weight", "sched: WRR weight 0 < 1 for flow 3", func() {
			w := NewWRR(func(int) int { return 0 })
			w.OnArrival(3, true)
			w.NextFlow()
		}},
		{"IWRR negative weight", "sched: IWRR weight -2 < 1 for flow 1", func() {
			s := NewIWRR(func(int) int { return -2 })
			s.OnArrival(1, true)
			s.NextFlow()
		}},
		{"DRR fixed quantum", "sched: DRR quantum -5 < 1", func() {
			NewDRR(-5, nil)
		}},
		{"DRR per-flow quantum", "sched: DRR quantum -1 < 1 for flow 2", func() {
			d := NewDRR(0, func(int) int64 { return -1 })
			d.OnArrival(2, true)
			d.OnArrivalLength(2, 4)
			d.NextFlow()
		}},
		{"DRR-OPT missing flow", "sched: DRR-OPT has no quantum for flow 1 (table has 1 flows)", func() {
			d := NewOptDRR([]int64{8})
			d.OnArrival(1, true)
			d.OnArrivalLength(1, 4)
			d.NextFlow()
		}},
	}
	for _, c := range cases {
		assertPanicsWith(t, c.name, c.want, c.trigger)
	}
}

func TestWRRInvalidWeightPanics(t *testing.T) {
	w := NewWRR(func(int) int { return 0 })
	w.OnArrival(0, true)
	assertPanics(t, "weight 0", func() { w.NextFlow() })
}

func assertPanicsWith(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
			return
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Errorf("%s panicked with %v, want %q", name, r, want)
		}
	}()
	f()
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
