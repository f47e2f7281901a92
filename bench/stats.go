package main

import (
	"math"
	"sort"
)

// summary is what the benchmark reports for one metric on one workload:
// the median over the run's cycles with the quartiles and sample count
// that say how far to trust it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4) — the method the
// acceptance check applies to the run medians — so a spread quoted from
// this tool and one computed by that check agree; unlike Python it never
// extrapolates past the smallest or largest sample. A single sample is
// its own quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an ascending slice at position
// q*(n+1) (1-based), clamped to the ends.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return summarize(xs).Median }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tailPercentiles are the tail points a latency distribution may be
// quoted at, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// supportedTail returns the highest of tailPercentiles that still has at
// least ten samples beyond it in a population of n: a p99.9 over 2 000
// samples is two requests, and is not reported. Fewer than 20 samples
// support nothing; the median is what is left to quote.
func supportedTail(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailAtMost returns the percentile of s at p, lowered to the highest
// percentile the sample count supports.
func tailAtMost(s []float64, p float64) float64 {
	return percentile(s, min(p, supportedTail(len(s))))
}
