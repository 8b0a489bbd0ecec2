package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of values by the
// nearest-rank rule: the smallest value with at least p % of the sample at
// or below it. It sorts a copy. An empty sample yields NaN, which the
// reporting code turns into a failed run rather than a zero.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the 50th percentile with the two middle values averaged on an
// even sample, so that the median of three windows is the middle window and
// the median of two is their mean.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// densest returns the largest number of the given instants that fall inside
// any one interval of the given width.
func densest(instants []time.Duration, width time.Duration) int {
	sorted := append([]time.Duration(nil), instants...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	best, lo := 0, 0
	for hi, t := range sorted {
		for t-sorted[lo] >= width {
			lo++
		}
		if n := hi - lo + 1; n > best {
			best = n
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the repeatability figure -compare and the baseline
// report. Quartiles follow Python's statistics.quantiles(values, n=4)
// (exclusive method), so the number matches what the acceptance check
// computes.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	quantile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	med := median(sorted)
	if med == 0 {
		return 0
	}
	return math.Abs(quantile(3)-quantile(1)) / math.Abs(med)
}

// orZero maps the NaN of an empty sample to 0, for per-layer metrics that do
// not apply to a workload (no reads, no checkpoints, no fault): every pass
// reports every declared metric, and those read 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// longestGap returns the longest interval inside [from, to] that contains
// none of the given instants (offsets on one clock). With no instant inside,
// it is the whole interval.
func longestGap(instants []time.Duration, from, to time.Duration) time.Duration {
	inside := make([]time.Duration, 0, len(instants))
	for _, t := range instants {
		if t >= from && t <= to {
			inside = append(inside, t)
		}
	}
	sort.Slice(inside, func(i, j int) bool { return inside[i] < inside[j] })
	longest, prev := time.Duration(0), from
	for _, t := range inside {
		if t-prev > longest {
			longest = t - prev
		}
		prev = t
	}
	if to-prev > longest {
		longest = to - prev
	}
	return longest
}
