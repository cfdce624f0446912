package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least a q share of the values at or below it
// (rank ceil(q*n), 1-based). q*n is rounded down by a hair before the
// ceiling so that, say, 0.99*100 picks rank 99 and not 100. An empty
// slice yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median (the lower middle of an even count).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
