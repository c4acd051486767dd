package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe. The
// bucket layout is frozen at construction, so the hot path is one linear
// scan over ~30 float compares plus three atomic adds — no allocation, no
// locking. Scrapes export the cumulative bucket counts, from which the
// scraper estimates quantiles.
//
// The zero value is unusable; obtain one from NewHistogram or
// Registry.Histogram.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits, CAS-add
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// Nil or empty bounds select DefLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBounds()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// DefLatencyBounds is the default latency bucket layout: exponential
// doubling from 1µs to ~8.4s (24 finite buckets), matching the dynamic
// range between a single blocked-kernel frame and a full inline training
// stall.
func DefLatencyBounds() []float64 {
	bounds := make([]float64, 24)
	v := 1e-6
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// LinearBounds returns n ascending bounds start, start+step, ... — used for
// small-integer distributions such as merge widths.
func LinearBounds(start, step float64, n int) []float64 {
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = start + float64(i)*step
	}
	return bounds
}

// Observe records one sample. Allocation-free and safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns a consistent-enough copy of the bucket counts for
// exposition: each bucket is read atomically; cross-bucket skew is bounded
// by in-flight Observes and is the standard Prometheus trade-off.
func (h *Histogram) snapshot() []uint64 {
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts
}
