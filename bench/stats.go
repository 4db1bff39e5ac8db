package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest value with at least q of the samples at or below it.
// It sorts s in place and returns 0 for an empty slice.
func percentile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	sortInt64(s)
	return sortedPercentile(s, q)
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// sortedPercentile is percentile over an already sorted slice.
func sortedPercentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// medianFloat is the median of a small set of run-level values (set-up
// times, per-run metrics in -compare); it averages the middle pair.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) (exclusive method) does, so -compare shows
// the same spread the driver computes. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
