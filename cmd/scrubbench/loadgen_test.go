package main

import (
	"testing"
	"time"
)

// TestNearestRank pins the loadgen percentile: the smallest sample with
// at least a q share of the samples at or below it, read from the
// samples themselves rather than from bucket bounds.
func TestNearestRank(t *testing.T) {
	us := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Microsecond
		}
		return d
	}
	ten := us(11, 12, 13, 14, 15, 16, 17, 18, 19, 420)
	for _, c := range []struct {
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{ten, 0.50, 15 * time.Microsecond},
		{ten, 0.90, 19 * time.Microsecond},
		{ten, 0.91, 420 * time.Microsecond},
		{ten, 0.99, 420 * time.Microsecond},
		{ten, 0, 11 * time.Microsecond},
		{ten, 1, 420 * time.Microsecond},
		{us(7), 0.5, 7 * time.Microsecond},
		{nil, 0.5, 0},
	} {
		if got := nearestRank(c.sorted, c.q); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}
