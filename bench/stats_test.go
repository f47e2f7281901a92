package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		wantLength int
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 10},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 4},
		{[]float64{7}, 7, 7, 7, 1},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != c.wantLength || !near(s.Q1, c.q1) || !near(s.Median, c.m) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want n=%d q1=%v median=%v q3=%v", c.xs, s, c.wantLength, c.q1, c.m, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeNeverLeavesTheData(t *testing.T) {
	// Python extrapolates below the minimum for two samples; a reported
	// quartile outside the measured range would be a number nobody saw.
	s := summarize([]float64{10, 20})
	if s.Q1 < 10 || s.Q3 > 20 || !near(s.Median, 15) {
		t.Errorf("summarize([10 20]) = %+v", s)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	// 1 000 samples support p99 but not p99.9: asking for more gets p99.
	if got := tailAtMost(s, 99.9); got != 990 {
		t.Errorf("tailAtMost(p99.9) of 1000 samples = %v, want the p99 990", got)
	}
	if got := tailAtMost(s[:10], 99); got != 5 {
		t.Errorf("tailAtMost of 10 samples = %v, want the median 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}
