package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(100-i) * time.Microsecond // unsorted on purpose
	}
	sortDurations(s)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Microsecond}, {99, 99 * time.Microsecond}, {100, 100 * time.Microsecond}, {0.1, time.Microsecond}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 50); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %v", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 20, 30}, 10, 20, 30},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}
