package metrics

import (
	"math"
	"math/bits"
	"time"
)

// Histogram accumulates durations into power-of-two buckets (1µs, 2µs,
// 4µs, …), the usual shape for latency distributions: cheap to update,
// good enough resolution for percentile estimates across six decades.
type Histogram struct {
	buckets [40]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// bucketFor maps a duration to its bucket index (bucket i spans
// [2^i, 2^(i+1)) microseconds; sub-microsecond goes to bucket 0).
func bucketFor(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us == 0 {
		return 0
	}
	b := bits.Len64(us) - 1
	if b >= len(Histogram{}.buckets) {
		b = len(Histogram{}.buckets) - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets; the
// answer is exact to within one bucket's width.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			// Report the bucket's upper edge.
			return time.Duration(uint64(1)<<(uint(i)+1)) * time.Microsecond
		}
	}
	return h.max
}

// Snapshot returns a copy of the histogram's current state. Snapshots
// are plain values: the tick sampler stores one per hist instrument per
// interval, and Delta subtracts two of them into a per-interval
// distribution.
func (h *Histogram) Snapshot() Histogram { return *h }

// NumBuckets returns the number of power-of-two buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// BucketCount returns the number of observations in bucket i.
func (h *Histogram) BucketCount(i int) uint64 { return h.buckets[i] }

// BucketUpper returns the exclusive upper edge of bucket i.
func BucketUpper(i int) time.Duration {
	return time.Duration(uint64(1)<<(uint(i)+1)) * time.Microsecond
}

// Delta returns the observations recorded between the prev and cur
// snapshots of the same histogram (cur minus prev, bucket by bucket).
// Buckets, count and sum are exact; min/max cannot be recovered from
// cumulative snapshots, so they are re-derived from the bucket edges of
// the delta — good enough for per-interval percentile timelines.
func Delta(cur, prev Histogram) Histogram {
	var d Histogram
	for i := range cur.buckets {
		d.buckets[i] = cur.buckets[i] - prev.buckets[i]
	}
	d.count = cur.count - prev.count
	d.sum = cur.sum - prev.sum
	if d.count == 0 {
		return d
	}
	minSet := false
	for i, c := range d.buckets {
		if c == 0 {
			continue
		}
		if !minSet {
			minSet = true
			if i > 0 {
				d.min = time.Duration(uint64(1)<<uint(i)) * time.Microsecond
			}
		}
		d.max = BucketUpper(i)
	}
	return d
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}
