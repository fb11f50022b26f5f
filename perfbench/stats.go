package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples: the smallest sample at or above which at least p% of all
// samples lie, i.e. the sample of 1-based rank ⌈p·n/100⌉ in sorted order.
// It is exact over every sample — no histogram buckets — and sorts
// samples in place. It returns 0 for an empty slice.
func percentile(samples []int64, p float64) int64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); it sorts a copy, so xs keeps its order.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 — a per-layer share whose layer
// did no work in this workload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
