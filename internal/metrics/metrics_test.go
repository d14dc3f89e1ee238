package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/rng"
)

func TestFairnessTrackerSimple(t *testing.T) {
	ft := NewFairnessTracker(2)
	ft.Serve(0, 10)
	if ft.FM() != 10 {
		t.Errorf("FM = %d, want 10", ft.FM())
	}
	ft.Serve(1, 10)
	// D_01 went 0 -> 10 -> 0, so FM stays 10.
	if ft.FM() != 10 {
		t.Errorf("FM = %d, want 10", ft.FM())
	}
	ft.Serve(1, 5)
	// D_01 now -5: spread is 10 - (-5) = 15.
	if ft.FM() != 15 {
		t.Errorf("FM = %d, want 15", ft.FM())
	}
	if ft.Served(0) != 10 || ft.Served(1) != 15 {
		t.Error("Served totals wrong")
	}
}

func TestFairnessTrackerPairFM(t *testing.T) {
	ft := NewFairnessTracker(3)
	ft.Serve(0, 4)
	ft.Serve(2, 1)
	if got := ft.PairFM(0, 2); got != 4 {
		t.Errorf("PairFM(0,2) = %d, want 4", got)
	}
	if got := ft.PairFM(2, 0); got != 4 {
		t.Errorf("PairFM symmetric lookup = %d, want 4", got)
	}
	if got := ft.PairFM(1, 1); got != 0 {
		t.Errorf("PairFM(i,i) = %d, want 0", got)
	}
}

// Property: FairnessTracker matches a brute-force computation of
// max |Sent_i(t1,t2) - Sent_j(t1,t2)| over all event-boundary
// intervals.
func TestFairnessTrackerMatchesBruteForce(t *testing.T) {
	prop := func(ops []uint8) bool {
		const n = 3
		ft := NewFairnessTracker(n)
		// history[k][f] = cumulative service of f after k events.
		history := [][]int64{make([]int64, n)}
		cum := make([]int64, n)
		for _, op := range ops {
			f := int(op) % n
			units := int64(op)%7 + 1
			ft.Serve(f, units)
			cum[f] += units
			snap := make([]int64, n)
			copy(snap, cum)
			history = append(history, snap)
		}
		var want int64
		for a := 0; a < len(history); a++ {
			for b := a + 1; b < len(history); b++ {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						d := (history[b][i] - history[a][i]) - (history[b][j] - history[a][j])
						if d < 0 {
							d = -d
						}
						if d > want {
							want = d
						}
					}
				}
			}
		}
		return ft.FM() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestServiceLogCumServed(t *testing.T) {
	l := NewServiceLog(3, 4) // small stride to cross checkpoints
	seq := []int{0, 1, 2, 0, Idle, 0, 1, 0, 2, Idle, 0}
	for _, f := range seq {
		l.Record(f)
	}
	if l.Cycles() != int64(len(seq)) {
		t.Fatalf("Cycles = %d", l.Cycles())
	}
	if l.Total(0) != 5 || l.Total(1) != 2 || l.Total(2) != 2 {
		t.Fatalf("totals wrong: %d %d %d", l.Total(0), l.Total(1), l.Total(2))
	}
	// Check every prefix against a scan.
	for tt := int64(0); tt <= int64(len(seq)); tt++ {
		for f := 0; f < 3; f++ {
			var want int64
			for i := int64(0); i < tt; i++ {
				if seq[i] == f {
					want++
				}
			}
			if got := l.CumServed(f, tt); got != want {
				t.Fatalf("CumServed(%d,%d) = %d, want %d", f, tt, got, want)
			}
		}
	}
	// Cycles 3..7 are [0, Idle, 0, 1, 0]: three services of flow 0.
	if got := l.Sent(0, 3, 8); got != 3 {
		t.Errorf("Sent(0,3,8) = %d, want 3", got)
	}
}

func TestServiceLogFM(t *testing.T) {
	l := NewServiceLog(2, 0)
	// 6 cycles to flow 0, then 2 to flow 1.
	for i := 0; i < 6; i++ {
		l.Record(0)
	}
	for i := 0; i < 2; i++ {
		l.Record(1)
	}
	if got := l.FM(0, 8); got != 4 {
		t.Errorf("FM(0,8) = %d, want 4", got)
	}
	if got := l.FM(0, 6); got != 6 {
		t.Errorf("FM(0,6) = %d, want 6", got)
	}
	if got := l.FM(6, 8); got != 2 {
		t.Errorf("FM(6,8) = %d, want 2", got)
	}
}

// fmRef is FM by Definition 1 over the reference per-flow query:
// max_f Sent - min_f Sent.
func fmRef(l *ServiceLog, t1, t2 int64) int64 {
	lo, hi := l.Sent(0, t1, t2), l.Sent(0, t1, t2)
	for f := 1; f < l.n; f++ {
		s := l.Sent(f, t1, t2)
		lo, hi = min(lo, s), max(hi, s)
	}
	return hi - lo
}

// TestServiceLogFMMatchesSent checks the one-pass FM against the
// per-flow CumServed reference on random logs mixing served, Idle and
// Stalled cycles, at endpoints on, around and beyond stride
// boundaries and the end of the log, in both orders.
func TestServiceLogFMMatchesSent(t *testing.T) {
	src := rng.New(17)
	for iter := 0; iter < 300; iter++ {
		n := src.IntRange(1, 12)
		stride := []int{1, 2, 3, 4, 7, 16}[src.Intn(6)]
		l := NewServiceLog(n, stride)
		cycles := src.Intn(200)
		for i := 0; i < cycles; i++ {
			switch r := src.Intn(10); {
			case r == 0:
				l.Record(Idle)
			case r == 1:
				l.Record(Stalled)
			default:
				l.Record(src.Intn(n))
			}
		}
		end := int64(cycles)
		ends := []int64{-3, 0, 1, end - 1, end, end + 1, end + int64(stride) + 5}
		last := end / int64(stride) * int64(stride)
		for _, k := range []int64{last, last + int64(stride), src.Int63n(end+1) / int64(stride) * int64(stride)} {
			ends = append(ends, k-1, k, k+1)
		}
		for i := 0; i < 4; i++ {
			ends = append(ends, src.Int63n(end+2))
		}
		for _, a := range ends {
			for _, b := range ends {
				if got, want := l.FM(a, b), fmRef(l, a, b); got != want {
					t.Fatalf("n=%d stride=%d cycles=%d: FM(%d,%d) = %d, reference %d",
						n, stride, cycles, a, b, got, want)
				}
			}
		}
	}
}

func TestServiceLogClampsT(t *testing.T) {
	l := NewServiceLog(2, 0)
	l.Record(0)
	if got := l.CumServed(0, 100); got != 1 {
		t.Errorf("CumServed beyond end = %d, want 1", got)
	}
	if got := l.CumServed(0, -5); got != 0 {
		t.Errorf("CumServed(<0) = %d, want 0", got)
	}
}

func TestServiceLogAvgFM(t *testing.T) {
	l := NewServiceLog(2, 16)
	// Perfect alternation: any interval has FM <= 1.
	for i := 0; i < 10000; i++ {
		l.Record(i % 2)
	}
	avg := l.AvgFMRandomIntervals(500, rng.New(5))
	if avg > 1 {
		t.Errorf("alternating service: avg FM %.3f, want <= 1", avg)
	}
	// Blocked service: long runs produce large FM.
	b := NewServiceLog(2, 16)
	for i := 0; i < 10000; i++ {
		b.Record((i / 1000) % 2)
	}
	if got := b.AvgFMRandomIntervals(500, rng.New(5)); got < 100 {
		t.Errorf("blocked service: avg FM %.1f suspiciously small", got)
	}
}

func TestServiceLogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Record(out of range) did not panic")
		}
	}()
	l := NewServiceLog(2, 0)
	l.Record(7)
}

func TestServiceLogStalledAndUtilization(t *testing.T) {
	l := NewServiceLog(2, 4)
	// 4 served (2 per flow), 2 stalled, 2 idle.
	for _, f := range []int{0, Stalled, 1, Idle, 0, Stalled, 1, Idle} {
		l.Record(f)
	}
	if l.Cycles() != 8 {
		t.Fatalf("Cycles = %d", l.Cycles())
	}
	if l.IdleCycles() != 2 || l.StalledCycles() != 2 {
		t.Fatalf("idle %d stalled %d, want 2 2", l.IdleCycles(), l.StalledCycles())
	}
	// Stalled cycles are busy: utilization counts everything but idle.
	if got := l.Utilization(); got != 6.0/8.0 {
		t.Errorf("Utilization = %v, want 0.75", got)
	}
	// Stalled markers must not count as service for any flow.
	if l.Total(0) != 2 || l.Total(1) != 2 {
		t.Fatalf("totals %d %d, want 2 2", l.Total(0), l.Total(1))
	}
	if got := l.Sent(0, 0, 8); got != 2 {
		t.Errorf("Sent(0) = %d, want 2", got)
	}
	if got := l.FM(0, 8); got != 0 {
		t.Errorf("FM = %d, want 0", got)
	}
	if (&ServiceLog{}).Utilization() != 0 {
		t.Error("empty log utilization not 0")
	}
}

func TestNewServiceLogValidation(t *testing.T) {
	// 255 is now rejected too: 0xFE and 0xFF are reserved for the
	// Stalled and Idle markers.
	for _, n := range []int{0, 255, 256, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServiceLog(%d) did not panic", n)
				}
			}()
			NewServiceLog(n, 0)
		}()
	}
}

func TestDelayStats(t *testing.T) {
	d := NewDelayStats(2)
	d.Departure(flit.Packet{Flow: 0, Arrival: 10}, 19) // delay 10
	d.Departure(flit.Packet{Flow: 0, Arrival: 0}, 29)  // delay 30
	d.Departure(flit.Packet{Flow: 1, Arrival: 5, Length: 2}, 6)
	if d.Count() != 3 || d.CountOf(0) != 2 || d.CountOf(1) != 1 {
		t.Fatal("counts wrong")
	}
	if d.MeanOf(0) != 20 {
		t.Errorf("MeanOf(0) = %v, want 20", d.MeanOf(0))
	}
	if d.MaxOf(0) != 30 {
		t.Errorf("MaxOf(0) = %v, want 30", d.MaxOf(0))
	}
	if d.MeanOf(1) != 2 {
		t.Errorf("MeanOf(1) = %v, want 2", d.MeanOf(1))
	}
	want := (10.0 + 30.0 + 2.0) / 3.0
	if d.Mean() != want {
		t.Errorf("Mean = %v, want %v", d.Mean(), want)
	}
}

func TestThroughputTable(t *testing.T) {
	tt := NewThroughputTable(2, 8)
	tt.Serve(0, 128) // 1 KB
	tt.Serve(1, 64)
	tt.Serve(1, 64)
	if tt.Flits(0) != 128 || tt.Flits(1) != 128 {
		t.Fatal("flit accounting wrong")
	}
	if tt.Bytes(0) != 1024 {
		t.Errorf("Bytes(0) = %d", tt.Bytes(0))
	}
	if tt.KBytes(1) != 1.0 {
		t.Errorf("KBytes(1) = %v", tt.KBytes(1))
	}
	if tt.NumFlows() != 2 {
		t.Error("NumFlows wrong")
	}
	// Default flit width.
	def := NewThroughputTable(1, 0)
	def.Serve(0, 1)
	if def.Bytes(0) != int64(flit.DefaultFlitBytes) {
		t.Error("default flit width not applied")
	}
}
