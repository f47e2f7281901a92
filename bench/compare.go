package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints, per workload and end-to-end metric, the medians of
// two result documents, how much worse the second is, and the metric's
// bound. A metric whose medians are not known to within the bound — the
// quartile spread of either side, scaled to the spread of a median of n
// cycles, exceeds it — is marked unresolved rather than unchanged. It
// returns an error if any metric moved the wrong way by more than its
// bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	index := func(d document) map[[2]string]row {
		m := map[[2]string]row{}
		for _, r := range d.Rows {
			m[[2]string{r.Workload, r.Metric}] = r
		}
		return m
	}
	rowsA, rowsB := index(a), index(b)
	fmt.Fprintf(w, "%-12s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			ra, okA := rowsA[[2]string{wl.name, m.Name}]
			rb, okB := rowsB[[2]string{wl.name, m.Name}]
			if !okA || !okB || ra.N == 0 || rb.N == 0 || ra.Median == 0 {
				continue
			}
			worse := (rb.Median - ra.Median) / ra.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case math.Max(medianSpread(ra.summary), medianSpread(rb.summary)) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-12s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, ra.Median, rb.Median, 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics worse by more than their bound", regressed)
	}
	return nil
}

// medianSpread estimates how far a median of n samples strays, as a
// share of it: the interquartile range shrunk by sqrt(n). A single
// sample (peak RSS) has no spread to show.
func medianSpread(s summary) float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median) / math.Sqrt(float64(s.N))
}
