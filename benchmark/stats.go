package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. samples must be sorted ascending; an empty
// slice yields 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortDurations sorts latency samples in place and returns them.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// quartiles returns the first quartile, median and third quartile of
// values by the same rule as Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so the steadiness report matches a
// check written with it. Fewer than two values give that value three
// times.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0, 0, 0
	}
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle of values (mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch {
	case len(d) == 0:
		return 0
	case len(d)%2 == 1:
		return d[len(d)/2]
	default:
		return (d[len(d)/2-1] + d[len(d)/2]) / 2
	}
}
