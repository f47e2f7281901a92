// Package canary implements the post-commit canary window: per-interval
// throughput, error-rate and p99-latency samples from the live workload
// feed an SLO check, and a breach triggers an automatic live update back
// to the old version. The package is a leaf — it knows nothing
// about instances or engines, only samples and verdicts — so both the
// workload driver (which produces histograms) and the core engine (which
// consumes verdicts) can import it.
package canary

import (
	"math"
	"sort"
	"time"
)

// HistBuckets is the number of fixed geometric latency buckets. Bucket i
// covers (bound[i-1], bound[i]] with bound[0] = 1µs and a ×1.25 growth
// factor, reaching ~2.4e6 s at the top — wide enough that any real
// round-trip lands below the overflow bucket. 96 fixed buckets keep the
// histogram a flat value type (copyable and subtractable with no
// allocation), which is what lets it ride inside workload.SustainedStats
// snapshots.
const HistBuckets = 96

var histBounds [HistBuckets]time.Duration

func init() {
	b := int64(time.Microsecond)
	for i := 0; i < HistBuckets; i++ {
		histBounds[i] = time.Duration(b)
		b += b / 4 // ×1.25, exact in integer arithmetic for b >= 4
	}
}

// bucketOf returns the index of the bucket a latency falls in.
func bucketOf(d time.Duration) int {
	i := sort.Search(HistBuckets, func(i int) bool { return d <= histBounds[i] })
	if i >= HistBuckets {
		return HistBuckets - 1 // clamp overflow into the last bucket
	}
	return i
}

// BucketBound returns the upper boundary of bucket i (exported for tests
// that check the one-bucket-width error guarantee).
func BucketBound(i int) time.Duration {
	return histBounds[i]
}

// Histogram is a fixed-boundary latency histogram. The zero value is
// ready to use; it is a pure value type, so assignment copies it and two
// snapshots can be subtracted field by field.
type Histogram struct {
	Counts [HistBuckets]int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.Counts[bucketOf(d)]++
}

// Count returns the total number of recorded samples.
func (h Histogram) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Delta returns the histogram of samples recorded since an earlier
// snapshot of the same histogram.
func (h Histogram) Delta(since Histogram) Histogram {
	var d Histogram
	for i := range h.Counts {
		d.Counts[i] = h.Counts[i] - since.Counts[i]
	}
	return d
}

// Quantile returns the upper boundary of the bucket containing the
// q-quantile sample (0 < q <= 1). The true quantile lies in the same
// bucket, so the error is bounded by one bucket width (25% relative) —
// "exact enough" for an SLO gate over tail latency. Returns 0 for an
// empty histogram.
func (h Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			return histBounds[i]
		}
	}
	return histBounds[HistBuckets-1]
}
