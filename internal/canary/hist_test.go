package canary

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistogramQuantileProperty cross-checks histogram quantiles against
// exact sorted quantiles over random latency streams drawn from several
// distributions: the histogram's answer must land in the same bucket as
// the exact sample quantile, i.e. the error is bounded by one bucket
// width.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	draw := map[string]func() time.Duration{
		"uniform": func() time.Duration {
			return time.Duration(1+rng.Int63n(int64(50*time.Millisecond))) * 1
		},
		"exponential-ish": func() time.Duration {
			// Mostly fast with a heavy tail — the shape a canary p99 gate
			// actually judges.
			d := time.Duration(rng.ExpFloat64() * float64(200*time.Microsecond))
			if d < 1 {
				d = 1
			}
			return d
		},
		"bimodal": func() time.Duration {
			if rng.Intn(100) < 95 {
				return time.Duration(1 + rng.Int63n(int64(time.Millisecond)))
			}
			return 100*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
		},
	}
	for name, gen := range draw {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(5000)
				var h Histogram
				samples := make([]time.Duration, n)
				for i := range samples {
					samples[i] = gen()
					h.Observe(samples[i])
				}
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				if h.Count() != int64(n) {
					t.Fatalf("count %d != %d", h.Count(), n)
				}
				for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
					// Same rank convention as Histogram.Quantile: the
					// ceil(q*n)-th smallest sample.
					rank := int(math.Ceil(q * float64(n)))
					if rank < 1 {
						rank = 1
					}
					if rank > n {
						rank = n
					}
					exact := samples[rank-1]
					got := h.Quantile(q)
					// Same-bucket property: histogram quantile is the upper
					// bound of the bucket holding the exact quantile.
					if want := BucketBound(bucketOf(exact)); got != want {
						t.Fatalf("q=%v n=%d: hist %v, exact %v (bucket bound %v)",
							q, n, got, exact, want)
					}
					if got < exact {
						t.Fatalf("q=%v: hist %v underestimates exact %v", q, got, exact)
					}
				}
			}
		})
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	h.Observe(0)                      // below the first bound
	h.Observe(time.Duration(1 << 62)) // absurd overflow clamps to the top bucket
	if h.Count() != 2 {
		t.Fatalf("count %d != 2", h.Count())
	}
	if got := h.Quantile(0.01); got != BucketBound(0) {
		t.Fatalf("min sample quantile %v != first bound %v", got, BucketBound(0))
	}
	if got := h.Quantile(1.0); got != BucketBound(HistBuckets-1) {
		t.Fatalf("overflow quantile %v != last bound %v", got, BucketBound(HistBuckets-1))
	}
}

func TestHistogramDelta(t *testing.T) {
	var a, b Histogram
	lat := []time.Duration{time.Microsecond, time.Millisecond, 10 * time.Millisecond, time.Second}
	for _, d := range lat {
		a.Observe(d)
		b.Observe(d)
		b.Observe(d * 3)
	}
	d := b.Delta(a)
	if d.Count() != int64(len(lat)) {
		t.Fatalf("delta count %d != %d", d.Count(), len(lat))
	}
	// Each delta bucket is b's count minus a's.
	for i := range d.Counts {
		if want := b.Counts[i] - a.Counts[i]; d.Counts[i] != want {
			t.Fatalf("bucket %d: delta %d, want %d - %d = %d", i, d.Counts[i], b.Counts[i], a.Counts[i], want)
		}
	}
	// Bounds are strictly increasing (the geometric ladder is monotone).
	for i := 1; i < HistBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %v <= %v",
				i, BucketBound(i), BucketBound(i-1))
		}
	}
}
