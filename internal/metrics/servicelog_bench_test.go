package metrics

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// BenchmarkServiceLogRecord measures the per-cycle cost of the service
// log with and without the capacity hint. The hinted variant should
// show near-zero allocations: the unhinted one pays append doubling —
// on a multi-million-cycle run that is ~20 re-copies of a multi-MB
// sequence.
func BenchmarkServiceLogRecord(b *testing.B) {
	run := func(b *testing.B, hint int64) {
		b.ReportAllocs()
		l := NewServiceLogCap(8, 0, hint)
		for i := 0; i < b.N; i++ {
			l.Record(i & 7)
		}
	}
	b.Run("unhinted", func(b *testing.B) { run(b, 0) })
	b.Run("hinted", func(b *testing.B) { run(b, int64(b.N)) })
}

// BenchmarkServiceLogFM measures one FM query, the Figure 6 inner
// loop, on a 1M-cycle log of packet-sized runs (mean 5 flits) at 2, 6
// and 10 flows, over random intervals at the default stride.
func BenchmarkServiceLogFM(b *testing.B) {
	for _, n := range []int{2, 6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const cycles = 1 << 20
			src := rng.New(uint64(n))
			l := NewServiceLogCap(n, 0, cycles)
			for l.Cycles() < cycles {
				f := src.Intn(n)
				for k := src.IntRange(1, 9); k > 0; k-- {
					l.Record(f)
				}
			}
			ends := make([][2]int64, 1024)
			for i := range ends {
				a, c := src.Int63n(cycles), src.Int63n(cycles)
				ends[i] = [2]int64{min(a, c), max(a, c)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ends[i%len(ends)]
				l.FM(e[0], e[1])
			}
		})
	}
}
