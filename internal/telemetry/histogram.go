package telemetry

import (
	"math"
	"sort"
	"sync"
)

// Histogram is a fixed-bucket histogram: observations are counted into
// buckets with the given upper bounds (ascending), plus an implicit
// +Inf bucket. Snapshots report count/sum/mean and estimated p50/p99
// via linear interpolation inside the covering bucket, which is how
// Prometheus histogram_quantile works.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// DefaultLatencyBuckets covers 64 ns to ~275 ms in powers of two — wide
// enough for a per-packet latency distribution at interpreter speeds.
func DefaultLatencyBuckets() []float64 {
	b := make([]float64, 0, 23)
	for v := 64.0; v <= 64.0*float64(uint64(1)<<22); v *= 2 {
		b = append(b, v)
	}
	return b
}

// NewHistogram creates a histogram with the given ascending upper
// bounds; nil selects DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	// Binary search the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Merge folds other's observations into h. Both histograms must share
// bucket bounds; merging mismatched layouts panics (it would silently
// misbin). Used to combine per-shard latency histograms post-run.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	obounds, ocounts, ocount, osum := other.buckets()
	omin, omax := other.MinMax()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(obounds) != len(h.bounds) {
		panic("telemetry: histogram merge with mismatched bucket count")
	}
	for i, b := range obounds {
		if b != h.bounds[i] {
			panic("telemetry: histogram merge with mismatched bounds")
		}
	}
	for i, c := range ocounts {
		h.counts[i] += c
	}
	h.count += ocount
	h.sum += osum
	if ocount > 0 {
		if omin < h.min {
			h.min = omin
		}
		if omax > h.max {
			h.max = omax
		}
	}
}

// MinMax returns the observed extrema (+Inf/-Inf when empty).
func (h *Histogram) MinMax() (min, max float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min, h.max
}

// buckets returns copies of the internal state for exposition.
func (h *Histogram) buckets() (bounds []float64, counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...), h.count, h.sum
}

// HistSnapshot is a point-in-time summary of a histogram.
type HistSnapshot struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P99   float64
}

// Snapshot summarizes the histogram. Quantiles are bucket estimates;
// for exact quantiles over raw samples use Quantile.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(0.50)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked estimates the p-quantile from bucket counts with
// linear interpolation inside the covering bucket. Callers hold h.mu.
func (h *Histogram) quantileLocked(p float64) float64 {
	rank := p * float64(h.count)
	cum := uint64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		// Bucket i covers (lower, upper]; interpolate by rank position.
		// The +Inf bucket has no width to interpolate over; report the
		// observed max.
		if i == len(h.bounds) {
			return h.max
		}
		upper := h.bounds[i]
		lower := h.min
		if i > 0 {
			lower = h.bounds[i-1]
		}
		if lower > upper || math.IsInf(lower, 0) {
			lower = upper
		}
		frac := (rank - float64(lo)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lower + (upper-lower)*frac
	}
	return h.max
}

// Quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample slice using linear interpolation between adjacent ranks — the
// exact method the harness uses for latency percentiles, avoiding the
// floor-index bias that under-reports p99 on small traces.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
