package serve

import (
	"testing"
	"time"
)

func TestCostClockRoundsUpAndClamps(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Microsecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + time.Nanosecond, 2},
		{5 * time.Second, 5000},
	}
	for _, c := range cases {
		if got := costMillis(c.d); got != c.want {
			t.Errorf("costMillis(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
