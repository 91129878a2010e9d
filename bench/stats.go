package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, the
// estimator internal/core uses for its virtual-time P99. It sorts a copy and
// returns 0 for an empty sample set.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread summarises the per-round values written beside every metric.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles computes the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads this
// program prints match the ones the acceptance procedure computes.
func quartiles(xs []float64) spread {
	n := len(xs)
	if n == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return spread{Q1: s[0], Median: s[0], Q3: s[0], N: 1}
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return spread{Q1: at(0.25), Median: median(s), Q3: at(0.75), N: n}
}

// relSpread is the inter-quartile distance as a share of the median.
func (s spread) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
