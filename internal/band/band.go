// Package band implements the ∆-band machinery of paper §4.1: histograms
// of normalised centroid distances, high-density bands (Equation 1) and the
// KL divergence drift signal (Equation 2). The stability decision built on
// that signal lives in cluster.Set.
package band

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over normalised distances in [0, 1].
type Histogram struct {
	Counts []float64
	N      int
}

// NewHistogram returns an empty histogram with the given number of bins.
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("band: invalid bin count %d", bins))
	}
	return &Histogram{Counts: make([]float64, bins)}
}

// binOf maps a distance in [0,1] to its bin, clamping out-of-range values.
func (h *Histogram) binOf(d float64) int {
	b := int(d * float64(len(h.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Add records one distance observation.
func (h *Histogram) Add(d float64) {
	h.Counts[h.binOf(d)]++
	h.N++
}

// Reset clears all counts.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.N = 0
}

// Probs returns the Laplace-smoothed probability mass function, the PA/PB
// of Equation 2. Smoothing keeps the KL divergence finite when bins are
// empty.
func (h *Histogram) Probs() []float64 {
	out := make([]float64, len(h.Counts))
	denom := float64(h.N) + float64(len(h.Counts))*smoothing
	for i, c := range h.Counts {
		out[i] = (c + smoothing) / denom
	}
	return out
}

const smoothing = 0.5

// KL returns the Kullback–Leibler divergence D(p‖q) = Σ p log(p/q) between
// two probability vectors (Equation 2 with the paper's sign convention).
func KL(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("band: KL length mismatch")
	}
	var s float64
	for i, pi := range p {
		if pi <= 0 {
			continue
		}
		qi := q[i]
		if qi <= 0 {
			qi = 1e-12
		}
		s += pi * math.Log(pi/qi)
	}
	if s < 0 {
		// Numerical noise; KL is non-negative by Gibbs' inequality.
		return 0
	}
	return s
}

// Band is a high-density ∆-band [Lo, Hi] over normalised distance holding
// fraction Delta of a cluster's points (Equation 1).
type Band struct {
	Lo, Hi float64
	Delta  float64
}

// Contains reports whether a normalised distance lies inside the band.
func (b Band) Contains(d float64) bool { return d >= b.Lo && d <= b.Hi }

// Width returns Hi − Lo.
func (b Band) Width() float64 { return b.Hi - b.Lo }

// String renders the band bounds.
func (b Band) String() string { return fmt.Sprintf("[%.3f, %.3f]@%.2f", b.Lo, b.Hi, b.Delta) }

// Compute derives the ∆-band from a distance histogram: the band is seeded
// at the distribution peak and greedily expanded toward whichever neighbour
// bin holds more mass — inwards toward the centroid and outwards toward the
// cluster edge — until it holds at least fraction delta of the points
// (∫ f∆ = ∆, Equation 1).
func Compute(h *Histogram, delta float64) Band {
	if h.N == 0 {
		return Band{Lo: 0, Hi: 1, Delta: delta}
	}
	bins := len(h.Counts)
	// Peak bin.
	peak := 0
	for i, c := range h.Counts {
		if c > h.Counts[peak] {
			peak = i
		}
	}
	lo, hi := peak, peak
	mass := h.Counts[peak]
	target := delta * float64(h.N)
	for mass < target && (lo > 0 || hi < bins-1) {
		var left, right float64 = -1, -1
		if lo > 0 {
			left = h.Counts[lo-1]
		}
		if hi < bins-1 {
			right = h.Counts[hi+1]
		}
		if left >= right && lo > 0 {
			lo--
			mass += left
		} else {
			hi++
			mass += right
		}
	}
	w := 1 / float64(bins)
	return Band{Lo: float64(lo) * w, Hi: float64(hi+1) * w, Delta: delta}
}

// Tracker maintains a cluster's live distance distribution, its ∆-band and
// the KL-divergence stability signal. Observe implements the prior/
// posterior comparison of §4.1: PA is the distribution before a point is
// added, PB after.
type Tracker struct {
	Hist  *Histogram
	Delta float64

	band Band
}

// NewTracker returns a tracker with the given histogram resolution and ∆.
func NewTracker(bins int, delta float64) *Tracker {
	return &Tracker{Hist: NewHistogram(bins), Delta: delta, band: Band{Lo: 0, Hi: 1, Delta: delta}}
}

// Observe records a distance, recomputes the band, and returns the KL
// divergence between the prior and posterior distributions.
func (t *Tracker) Observe(d float64) float64 {
	prior := t.Hist.Probs()
	t.Hist.Add(d)
	kl := KL(prior, t.Hist.Probs())
	t.band = Compute(t.Hist, t.Delta)
	return kl
}

// Band returns the current ∆-band.
func (t *Tracker) Band() Band { return t.band }

// Rebuild recomputes the histogram from scratch over a set of distances.
func (t *Tracker) Rebuild(dists []float64) {
	t.Hist.Reset()
	for _, d := range dists {
		t.Hist.Add(d)
	}
	t.band = Compute(t.Hist, t.Delta)
}
