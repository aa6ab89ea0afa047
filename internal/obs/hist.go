package obs

import "math/bits"

// hist.go implements the log-bucketed histogram backing every Observe
// call. Buckets are powers of two, so recording is a bit-length
// computation and two increments — cheap enough for phase boundaries —
// while two histograms with the same layout merge by adding bucket
// counts, which is what per-worker obs.Local buffers rely on.
//
// The same layout serves two metric kinds:
//
//   - duration histograms (span latencies), where samples are
//     nanoseconds and bucket bounds read as 1µs, 2µs, 4µs, …;
//   - value histograms (per-phase effort: decisions per solve, ground
//     rules per grounding), where samples are raw counts.
//
// names.go declares which names are value histograms; everything else
// observed through Registry.Observe is a duration.

// histBuckets is the number of finite buckets: bucket i covers
// (2^(i-1), 2^i] (bucket 0 covers (-inf, 1]). 2^49 ns is about six
// days, far beyond any request or solve this system produces; larger
// samples land in the overflow bucket.
const histBuckets = 50

// Hist is a fixed-layout log-bucketed histogram. The zero value is
// ready to use. Hist is not goroutine-safe; the Registry guards its
// histograms with the metrics mutex, and obs.Local owns one per name
// per worker.
type Hist struct {
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets + 1]int64 // +1 = overflow (> 2^49)
}

// bucketOf returns the bucket index of sample v: the smallest i with
// v <= 2^i (0 for v <= 1), histBuckets for overflow. Negative samples
// (clock weirdness) are clamped into bucket 0.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// BucketUpper returns the inclusive upper bound of finite bucket i.
func BucketUpper(i int) int64 { return 1 << uint(i) }

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Merge adds o's samples into h (layouts are identical by construction).
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.count }

// Stats snapshots the histogram, precomputing the standard quantiles.
func (h *Hist) Stats() HistogramStats {
	s := HistogramStats{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
	}
	if h.count == 0 {
		return s
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := int64(-1) // overflow renders as +Inf
		if i < histBuckets {
			le = BucketUpper(i)
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: n})
	}
	s.P50 = h.quantile(0.50)
	s.P90 = h.quantile(0.90)
	s.P99 = h.quantile(0.99)
	s.P999 = h.quantile(0.999)
	return s
}

// quantile estimates the q-quantile by locating the bucket holding the
// target rank and interpolating linearly inside it, clamped to the
// exact observed [min, max].
func (h *Hist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count-1) // 0-based fractional rank
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) > rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketUpper(i-1) + 1
			}
			hi := h.max
			if i < histBuckets && BucketUpper(i) < hi {
				hi = BucketUpper(i)
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return h.max
}

// HistogramStats is the point-in-time copy of one histogram in a
// Snapshot: totals, exact extrema, estimated quantiles and the
// non-empty buckets. Sum/Min/Max/P* are nanoseconds for duration
// histograms and raw units for value histograms (see IsValueHist).
type HistogramStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`
	// Buckets lists the non-empty buckets in ascending bound order,
	// with per-bucket (not cumulative) counts. Le is the inclusive
	// upper bound; -1 marks the overflow (+Inf) bucket.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Quantile returns the precomputed standard quantiles and interpolates
// the rest from the bucket dump (coarser than the live histogram, since
// only non-empty buckets survive the snapshot).
func (s HistogramStats) Quantile(q float64) int64 {
	switch q {
	case 0.5:
		return s.P50
	case 0.9:
		return s.P90
	case 0.99:
		return s.P99
	case 0.999:
		return s.P999
	}
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count-1)
	var cum int64
	for _, b := range s.Buckets {
		if float64(cum+b.Count) > rank {
			if b.Le < 0 {
				return s.Max
			}
			return min64(b.Le, s.Max)
		}
		cum += b.Count
	}
	return s.Max
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
