package obs

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed size of the per-op latency histogram. Buckets are
// power-of-two nanosecond ranges: bucket 0 holds latencies below 64 ns,
// bucket i (i>0) holds [64<<(i-1), 64<<i) ns, and the last bucket absorbs
// everything from ~16.8 ms up. Fixed buckets keep recording a single atomic
// add and make histograms diffable field-by-field.
const NumBuckets = 20

// bucketOf maps a latency in nanoseconds to its histogram bucket.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns >> 6)
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketOf maps a latency in nanoseconds to its histogram bucket index.
// Exported for sinks outside this package (the network server's request
// histograms) that share the bucket layout so their series diff and render
// with the same tools.
func BucketOf(ns uint64) int { return bucketOf(ns) }

// BucketUpperNs returns the exclusive upper bound of bucket i in
// nanoseconds (the last bucket reports its lower bound: it is unbounded).
func BucketUpperNs(i int) uint64 {
	if i >= NumBuckets-1 {
		return 64 << (NumBuckets - 2)
	}
	return 64 << i
}

// BucketLowerNs returns the inclusive lower bound of bucket i in
// nanoseconds.
func BucketLowerNs(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return 64 << (NumBuckets - 2)
	}
	return 64 << (i - 1)
}

// Histogram is a diffed, plain-value latency histogram (counts per bucket).
type Histogram [NumBuckets]uint64

// Observe records one latency sample of ns nanoseconds. Not safe for
// concurrent use — single-goroutine accumulators (bench harnesses) only;
// concurrent recording goes through a Registry.
func (h *Histogram) Observe(ns uint64) { h[bucketOf(ns)]++ }

// Count returns the total number of recorded samples.
func (h Histogram) Count() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// in nanoseconds: the upper bound of the bucket where the cumulative count
// crosses q. Returns 0 for an empty histogram.
func (h Histogram) Quantile(q float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	if want > total {
		want = total
	}
	var cum uint64
	for i, c := range h {
		cum += c
		if cum >= want {
			return BucketUpperNs(i)
		}
	}
	return BucketUpperNs(NumBuckets - 1)
}

// Percentile returns an interpolated estimate of the q-quantile (0 < q <=
// 1) in nanoseconds. Where Quantile reports the crossing bucket's upper
// bound (a safe but coarse overestimate — power-of-two buckets make it up
// to 2x high), Percentile interpolates linearly within the crossing
// bucket, treating the bucket's k-th sample as sitting at the center of
// its 1/count slice; a single-sample bucket therefore estimates its
// midpoint. The last bucket is unbounded and reports its lower bound.
// Returns 0 for an empty histogram.
func (h Histogram) Percentile(q float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want < 1 {
		want = 1
	}
	if want > total {
		want = total
	}
	var cum uint64
	for i, c := range h {
		if c == 0 {
			continue
		}
		cum += c
		if cum < want {
			continue
		}
		lo := BucketLowerNs(i)
		hi := BucketUpperNs(i)
		if hi <= lo { // unbounded tail bucket
			return lo
		}
		rank := want - (cum - c) // 1-based rank within this bucket
		frac := (float64(rank) - 0.5) / float64(c)
		return lo + uint64(frac*float64(hi-lo))
	}
	return BucketLowerNs(NumBuckets - 1)
}

// Add returns the bucket-wise sum h+b.
func (h Histogram) Add(b Histogram) Histogram {
	var out Histogram
	for i := range h {
		out[i] = h[i] + b[i]
	}
	return out
}

// Sub returns the bucket-wise difference h-b.
func (h Histogram) Sub(b Histogram) Histogram {
	var out Histogram
	for i := range h {
		out[i] = h[i] - b[i]
	}
	return out
}
