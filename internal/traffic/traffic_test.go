package traffic

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/rng"
)

// fixedView is a QueueView with constant queue lengths.
type fixedView map[int]int

func (v fixedView) QueueLen(flow int) int { return v[flow] }

func TestBernoulliRate(t *testing.T) {
	src := rng.New(1)
	b := NewBernoulli(2, 0.25, rng.Constant{Length: 4}, src)
	count := 0
	const cycles = 100000
	for c := int64(0); c < cycles; c++ {
		ps := b.Arrivals(c, fixedView{})
		count += len(ps)
		for _, p := range ps {
			if p.Flow != 2 || p.Length != 4 {
				t.Fatalf("bad packet %+v", p)
			}
		}
	}
	rate := float64(count) / cycles
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("Bernoulli empirical rate %.4f, want 0.25", rate)
	}
}

func TestBernoulliValidation(t *testing.T) {
	for _, r := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v accepted", r)
				}
			}()
			NewBernoulli(0, r, rng.Constant{Length: 1}, rng.New(1))
		}()
	}
}

func TestPoissonRate(t *testing.T) {
	src := rng.New(3)
	p := NewPoisson(0, 1.5, rng.Constant{Length: 1}, src)
	count := 0
	const cycles = 50000
	for c := int64(0); c < cycles; c++ {
		count += len(p.Arrivals(c, fixedView{}))
	}
	rate := float64(count) / cycles
	if math.Abs(rate-1.5) > 0.05 {
		t.Errorf("Poisson empirical rate %.3f, want 1.5", rate)
	}
}

func TestBackloggedTopsUp(t *testing.T) {
	src := rng.New(5)
	b := NewBacklogged(1, 3, rng.Constant{Length: 2}, src)
	ps := b.Arrivals(0, fixedView{1: 0})
	if len(ps) != 3 {
		t.Fatalf("top-up from empty gave %d packets, want 3", len(ps))
	}
	ps = b.Arrivals(1, fixedView{1: 2})
	if len(ps) != 1 {
		t.Fatalf("top-up from 2 gave %d packets, want 1", len(ps))
	}
	if ps = b.Arrivals(2, fixedView{1: 3}); ps != nil {
		t.Fatalf("full queue still got %d packets", len(ps))
	}
	if ps = b.Arrivals(3, fixedView{1: 9}); ps != nil {
		t.Fatal("overfull queue got packets")
	}
}

func TestOnOffBursts(t *testing.T) {
	src := rng.New(7)
	o := NewOnOff(0, 1.0, 50, 50, rng.Constant{Length: 1}, src)
	count := 0
	const cycles = 200000
	for c := int64(0); c < cycles; c++ {
		count += len(o.Arrivals(c, fixedView{}))
	}
	// ~50% duty cycle at rate 1 => ~0.5 packets/cycle.
	rate := float64(count) / cycles
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("OnOff duty rate %.3f, want ~0.5", rate)
	}
}

func TestWindowGates(t *testing.T) {
	src := rng.New(9)
	w := NewWindow(NewBernoulli(0, 1.0, rng.Constant{Length: 1}, src), 10, 20)
	for c := int64(0); c < 30; c++ {
		got := len(w.Arrivals(c, fixedView{}))
		want := 0
		if c >= 10 && c < 20 {
			want = 1
		}
		if got != want {
			t.Fatalf("cycle %d: %d arrivals, want %d", c, got, want)
		}
	}
}

func TestMultiCombines(t *testing.T) {
	src := rng.New(11)
	m := NewMulti(
		NewBernoulli(0, 1.0, rng.Constant{Length: 1}, src),
		NewBernoulli(1, 1.0, rng.Constant{Length: 2}, src),
	)
	ps := m.Arrivals(0, fixedView{})
	if len(ps) != 2 || ps[0].Flow != 0 || ps[1].Flow != 1 {
		t.Fatalf("Multi arrivals = %+v", ps)
	}
}

func TestRecorderAndReplayRoundTrip(t *testing.T) {
	src := rng.New(13)
	rec := NewRecorder(NewMulti(
		NewBernoulli(0, 0.3, rng.NewUniform(1, 8), src.Split()),
		NewBernoulli(1, 0.6, rng.NewUniform(1, 8), src.Split()),
	))
	var orig []flit.Packet
	for c := int64(0); c < 1000; c++ {
		orig = append(orig, rec.Arrivals(c, fixedView{})...)
	}
	rp := NewReplay(rec.Events)
	var replayed []flit.Packet
	for c := int64(0); c < 1000; c++ {
		replayed = append(replayed, rp.Arrivals(c, fixedView{})...)
	}
	if !rp.Done() {
		t.Error("replay not done after covering all cycles")
	}
	if len(orig) != len(replayed) {
		t.Fatalf("replay count %d != original %d", len(replayed), len(orig))
	}
	for i := range orig {
		if orig[i].Flow != replayed[i].Flow || orig[i].Length != replayed[i].Length {
			t.Fatalf("replay diverged at %d: %v vs %v", i, orig[i], replayed[i])
		}
	}
	// Reset and replay again.
	rp.Reset()
	if rp.Done() {
		t.Error("Done after Reset")
	}
}

func TestTraceSerialisation(t *testing.T) {
	events := []TraceEvent{
		{Cycle: 0, Flow: 1, Length: 5, Dst: 2},
		{Cycle: 3, Flow: 0, Length: 1, Dst: 0},
		{Cycle: 3, Flow: 2, Length: 9, Dst: 7},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip count %d", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("1 2 three 4\n")); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestReplaySortsEvents(t *testing.T) {
	rp := NewReplay([]TraceEvent{
		{Cycle: 5, Flow: 1, Length: 1},
		{Cycle: 2, Flow: 0, Length: 1},
	})
	if ps := rp.Arrivals(2, fixedView{}); len(ps) != 1 || ps[0].Flow != 0 {
		t.Fatal("replay did not sort events by cycle")
	}
}

func TestReadTraceRejectsNegativeCycle(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("0 0 4 0\n-1 1 2 0\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("negative cycle: err = %v, want a line 2 error", err)
	}
}

// replayFlows drives rp over cycles [from, to) and returns the flows
// released at each cycle that released any.
func replayFlows(rp *Replay, from, to int64) map[int64][]int {
	got := map[int64][]int{}
	for c := from; c < to; c++ {
		for _, p := range rp.Arrivals(c, fixedView{}) {
			got[c] = append(got[c], p.Flow)
		}
	}
	return got
}

// TestReplayReleasesPastEvents is the regression test for an event
// whose cycle is never polled: it used to block every later event, so
// the replay delivered nothing after it and never reported Done.
func TestReplayReleasesPastEvents(t *testing.T) {
	events := []TraceEvent{
		{Cycle: -1, Flow: 0, Length: 4},
		{Cycle: 2, Flow: 1, Length: 1},
		{Cycle: 2, Flow: 2, Length: 1},
		{Cycle: 5, Flow: 3, Length: 1},
	}
	for _, tc := range []struct {
		name string
		from int64
		want map[int64][]int
	}{
		{"negative cycle", 0, map[int64][]int{0: {0}, 2: {1, 2}, 5: {3}}},
		{"attached late", 4, map[int64][]int{4: {0, 1, 2}, 5: {3}}},
		{"attached after the last event", 9, map[int64][]int{9: {0, 1, 2, 3}}},
	} {
		rp := NewReplay(events)
		got := replayFlows(rp, tc.from, 10)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || !rp.Done() {
			t.Errorf("%s: released %v (done %v), want %v", tc.name, got, rp.Done(), tc.want)
		}
	}
	// Reset mid-run rewinds to events that are now all in the past.
	rp := NewReplay(events)
	replayFlows(rp, 0, 3)
	rp.Reset()
	if got := replayFlows(rp, 3, 10); fmt.Sprint(got) != fmt.Sprint(map[int64][]int{3: {0, 1, 2}, 5: {3}}) || !rp.Done() {
		t.Errorf("after Reset: released %v (done %v)", got, rp.Done())
	}
}

// TestQuietAfter pins the Quieter promises: Backlogged is quiet at
// depth, Multi when every child is, Window once closed or when its
// inner source is; a per-cycle random source never is.
func TestQuietAfter(t *testing.T) {
	dist := rng.Constant{Length: 2}
	full, short := fixedView{0: 3, 1: 3}, fixedView{0: 3, 1: 2}
	b0 := NewBacklogged(0, 3, dist, rng.New(1))
	b1 := NewBacklogged(1, 3, dist, rng.New(2))
	bern := NewBernoulli(0, 0.5, dist, rng.New(3))
	if _, ok := Source(bern).(Quieter); ok {
		t.Error("Bernoulli claims Quieter")
	}
	for _, tc := range []struct {
		name string
		q    Quieter
		view fixedView
		c    int64
		want bool
	}{
		{"backlogged at depth", b0, full, 0, true},
		{"backlogged below depth", b1, short, 0, false},
		{"multi all quiet", NewMulti(b0, b1), full, 0, true},
		{"multi one short", NewMulti(b0, b1), short, 0, false},
		{"multi with a random child", NewMulti(b0, bern), full, 0, false},
		{"empty multi", NewMulti(), full, 0, true},
		{"window open, inner quiet", NewWindow(b0, 0, 10), full, 3, true},
		{"window open, inner short", NewWindow(b1, 0, 10), short, 3, false},
		{"window open, random inner", NewWindow(bern, 0, 10), full, 3, false},
		{"window before start, inner short", NewWindow(b1, 5, 10), short, 0, false},
		{"window last open cycle", NewWindow(bern, 0, 10), full, 9, true},
		{"window closed", NewWindow(bern, 0, 10), full, 12, true},
	} {
		if got := tc.q.QuietAfter(tc.c, tc.view); got != tc.want {
			t.Errorf("%s: QuietAfter(%d) = %v, want %v", tc.name, tc.c, got, tc.want)
		}
	}
}
