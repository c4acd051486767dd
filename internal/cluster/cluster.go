// Package cluster implements the DETECTOR's online cluster set (paper
// §4.5): permanent clusters with ∆-bands, a sliding-window temporary
// cluster that absorbs outliers, KL-divergence stability detection, and
// promotion of stable temporary clusters into permanent ones — the drift
// event that triggers the SPECIALIZER.
package cluster

import (
	"fmt"
	"math"

	"odin/internal/band"
	"odin/internal/tensor"
)

// Config tunes the online clustering behaviour.
type Config struct {
	Bins  int     // histogram resolution for ∆-bands
	Delta float64 // band mass fraction ∆ (paper uses 0.5–0.75)

	// StabilityEps is the threshold on the smoothed KL divergence under
	// which the temporary cluster counts as "not changing" (DKL → 0,
	// Equation 2). The KL of single insertions into a sliding window has
	// an O(1/window) noise floor, so the signal is smoothed with an EWMA
	// before thresholding.
	StabilityEps float64
	// KLAlpha is the EWMA smoothing factor for the KL signal.
	KLAlpha float64
	// StabilitySteps is the minimum number of temp-cluster observations
	// since the last promotion before a new promotion may fire.
	StabilitySteps int
	MinPoints      int // minimum temp-cluster size before promotion
	TempWindow     int // sliding window length of the temporary cluster
	MaxClusters    int // 0 = unlimited; otherwise evict the smallest cluster

	// TailMargin widens each cluster's *routing* reach beyond its ∆-band:
	// a point whose normalised distance lies within
	// Hi + TailMargin·(Hi−Lo) of a cluster is treated as that concept's
	// out-of-band tail — it is served by the cluster (Assignment.Primary)
	// but neither updates the cluster nor enters the temporary cluster.
	// Without this, the ~25% of in-concept mass outside a ∆=0.75 band
	// floods the temporary cluster and prevents genuinely new concepts
	// from stabilising.
	TailMargin float64

	// MergeFactor controls subsumption at promotion time: when the
	// stabilised temporary cluster's centroid lies within MergeFactor ×
	// scale of an existing cluster, its points are absorbed into that
	// cluster instead of creating a new concept. This both prevents the
	// ∆-band's own out-of-band tail (the ~25% of in-concept points outside
	// a ∆=0.75 band) from spawning ring clusters, and reproduces the
	// paper's observation that DETECTOR subsumes similar subsets into one
	// cluster (Table 2).
	MergeFactor float64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Bins:           24,
		Delta:          0.75,
		StabilityEps:   0.01,
		KLAlpha:        0.25,
		StabilitySteps: 30,
		MinPoints:      60,
		TempWindow:     200,
		MaxClusters:    0,
		TailMargin:     0.5,
		MergeFactor:    2.0,
	}
}

// Cluster is one permanent concept cluster: a streaming centroid, a
// normalisation scale for distances, and a ∆-band tracker over the
// normalised distance distribution.
type Cluster struct {
	ID    int
	Label string

	n        int
	sum      []float64
	centroid []float64
	scale    float64 // running mean raw distance to centroid

	Tracker *band.Tracker
}

func newCluster(id, bins int, delta float64) *Cluster {
	return &Cluster{
		ID:      id,
		Label:   fmt.Sprintf("C-%d", id),
		Tracker: band.NewTracker(bins, delta),
	}
}

// Band returns the cluster's current ∆-band.
func (c *Cluster) Band() band.Band { return c.Tracker.Band() }

// Distance returns the normalised distance d(z, centroid) ∈ [0, 1):
// r/(r+s) where s is the running mean raw distance. The normalisation is
// what lets one [0,1] band machinery serve clusters of any latent radius
// (the d: ℜⁿ → [0,1] metric of §4.1).
func (c *Cluster) Distance(z []float64) float64 {
	if c.n == 0 {
		return 0
	}
	r := tensor.L2(z, c.centroid)
	s := c.scale
	if s <= 0 {
		s = 1e-9
	}
	return r / (r + s)
}

// RawDistance returns the unnormalised Euclidean distance to the centroid.
func (c *Cluster) RawDistance(z []float64) float64 {
	if c.n == 0 {
		return math.Inf(1)
	}
	return tensor.L2(z, c.centroid)
}

// Contains reports whether z falls inside the cluster's ∆-band.
func (c *Cluster) Contains(z []float64) bool {
	if c.n == 0 {
		return false
	}
	return c.Band().Contains(c.Distance(z))
}

// InTail reports whether z lies in the cluster's out-of-band tail: beyond
// the ∆-band but within margin band-widths of its outer bound.
func (c *Cluster) InTail(z []float64, margin float64) bool {
	if c.n == 0 || margin <= 0 {
		return false
	}
	b := c.Band()
	d := c.Distance(z)
	return d > b.Hi && d <= b.Hi+margin*b.Width()
}

// Add absorbs a point: updates the streaming centroid, the distance scale
// and the ∆-band distribution.
func (c *Cluster) Add(z []float64) {
	if c.n == 0 {
		c.sum = make([]float64, len(z))
		c.centroid = make([]float64, len(z))
	}
	for i, v := range z {
		c.sum[i] += v
	}
	c.n++
	inv := 1 / float64(c.n)
	for i := range c.centroid {
		c.centroid[i] = c.sum[i] * inv
	}
	r := tensor.L2(z, c.centroid)
	// Running mean of raw distances.
	c.scale += (r - c.scale) / float64(c.n)
	c.Tracker.Observe(c.Distance(z))
}

// seedFrom initialises a cluster from a window of points all at once
// (promotion path): centroid and scale from the batch, band rebuilt.
func (c *Cluster) seedFrom(points [][]float64) {
	c.centroid = tensor.Centroid(points)
	c.sum = make([]float64, len(c.centroid))
	for i, v := range c.centroid {
		c.sum[i] = v * float64(len(points))
	}
	c.n = len(points)
	var mean float64
	raw := make([]float64, len(points))
	for i, p := range points {
		raw[i] = tensor.L2(p, c.centroid)
		mean += raw[i]
	}
	c.scale = mean / float64(len(points))
	dists := make([]float64, len(points))
	for i, r := range raw {
		s := c.scale
		if s <= 0 {
			s = 1e-9
		}
		dists[i] = r / (r + s)
	}
	c.Tracker.Rebuild(dists)
}

// DriftEvent records the promotion of a temporary cluster to a permanent
// concept cluster — the signal that drift occurred (§4.5).
type DriftEvent struct {
	Cluster  *Cluster
	AtPoint  int // stream position at which drift was declared
	Evicted  *Cluster
	NumSeeds int
}

// Assignment is the outcome of observing one point.
type Assignment struct {
	// Primary is the nearest permanent cluster containing the point, or
	// nil when the point was an outlier (routed to the temporary cluster).
	Primary *Cluster
	// Containing lists every permanent cluster whose ∆-band contains the
	// point (Algorithm 2 updates all of them; ∆-BM selection uses them).
	Containing []*Cluster
	// Outlier reports whether the point fell outside every permanent band.
	Outlier bool
	// Drift is non-nil when this observation triggered a promotion.
	Drift *DriftEvent
}

// Set is the online cluster collection: zero or more permanent clusters
// plus one temporary cluster fed by outliers.
type Set struct {
	cfg Config

	Permanent []*Cluster
	nextID    int

	tempPoints [][]float64 // sliding window
	tempDists  []float64   // cached normalised distances (parallel to tempPoints)
	temp       *Cluster
	klEWMA     float64 // smoothed KL stability signal
	tempObs    int     // temp observations since the last promotion

	seen   int
	events []DriftEvent
}

// NewSet returns an empty cluster set.
func NewSet(cfg Config) *Set {
	if cfg.Bins <= 0 || cfg.Delta <= 0 || cfg.Delta > 1 {
		panic(fmt.Sprintf("cluster: invalid config %+v", cfg))
	}
	return &Set{cfg: cfg}
}

// Config returns the set's configuration.
func (s *Set) Config() Config { return s.cfg }

// Events returns all drift events so far.
func (s *Set) Events() []DriftEvent { return s.events }

// Observe routes one latent point through the DETECTOR's clustering logic
// and returns the assignment.
func (s *Set) Observe(z []float64) Assignment {
	s.seen++
	var a Assignment

	// 1. Check permanent clusters (Algorithm 2 lines 2–9): the point
	// updates every cluster whose band contains it; the nearest containing
	// cluster is the primary assignment.
	bestD := math.Inf(1)
	for _, c := range s.Permanent {
		if c.Contains(z) {
			a.Containing = append(a.Containing, c)
			if d := c.Distance(z); d < bestD {
				bestD = d
				a.Primary = c
			}
		}
	}
	if a.Primary != nil {
		for _, c := range a.Containing {
			c.Add(z)
		}
		return a
	}

	// 2. Tail: a point just beyond a cluster's band is that concept's
	// out-of-band tail; serve it from the nearest such cluster without
	// polluting either the cluster statistics or the temporary cluster.
	for _, c := range s.Permanent {
		if c.InTail(z, s.cfg.TailMargin) {
			if d := c.Distance(z); d < bestD {
				bestD = d
				a.Primary = c
			}
		}
	}
	if a.Primary != nil {
		return a
	}

	// 3. Outlier: route to the temporary cluster (Algorithm 2 lines 10–16).
	a.Outlier = true
	a.Drift = s.observeTemp(z)
	return a
}

// observeTemp adds a point to the sliding-window temporary cluster,
// recomputes its distribution and promotes it when stable.
func (s *Set) observeTemp(z []float64) *DriftEvent {
	cp := make([]float64, len(z))
	copy(cp, z)
	s.tempPoints = append(s.tempPoints, cp)
	if len(s.tempPoints) > s.cfg.TempWindow {
		s.tempPoints = s.tempPoints[1:]
	}

	if s.temp == nil {
		s.temp = newCluster(-1, s.cfg.Bins, s.cfg.Delta)
	}
	// Recompute the window's centroid, scale and distance distribution:
	// the temporary cluster must forget old outliers so a new concept can
	// stabilise even after a mixed transition period.
	t := s.temp
	t.centroid = tensor.Centroid(s.tempPoints)
	var mean float64
	raw := make([]float64, len(s.tempPoints))
	for i, p := range s.tempPoints {
		raw[i] = tensor.L2(p, t.centroid)
		mean += raw[i]
	}
	t.scale = mean / float64(len(s.tempPoints))
	t.n = len(s.tempPoints)
	prior := t.Tracker.Hist.Probs()
	s.tempDists = s.tempDists[:0]
	for _, r := range raw {
		sc := t.scale
		if sc <= 0 {
			sc = 1e-9
		}
		s.tempDists = append(s.tempDists, r/(r+sc))
	}
	t.Tracker.Rebuild(s.tempDists)
	posterior := t.Tracker.Hist.Probs()
	kl := band.KL(prior, posterior)

	alpha := s.cfg.KLAlpha
	if alpha <= 0 {
		alpha = 0.25
	}
	s.tempObs++
	if s.tempObs == 1 {
		s.klEWMA = kl
	} else {
		s.klEWMA += alpha * (kl - s.klEWMA)
	}

	if s.klEWMA >= s.cfg.StabilityEps ||
		s.tempObs < s.cfg.StabilitySteps ||
		len(s.tempPoints) < s.cfg.MinPoints {
		return nil
	}
	return s.promote()
}

// promote converts the temporary cluster into a permanent cluster, evicting
// the smallest permanent cluster when MaxClusters is exceeded (§6.5 "Model
// Count Threshold"). When the stabilised window is subsumed by an existing
// cluster (MergeFactor test) its points are merged instead and no drift is
// declared.
func (s *Set) promote() *DriftEvent {
	if host := s.subsumedBy(); host != nil {
		for _, p := range s.tempPoints {
			host.Add(p)
		}
		s.tempPoints = nil
		s.tempDists = nil
		s.temp = nil
		s.klEWMA = 0
		s.tempObs = 0
		return nil
	}

	c := newCluster(s.nextID, s.cfg.Bins, s.cfg.Delta)
	s.nextID++
	c.seedFrom(s.tempPoints)
	s.Permanent = append(s.Permanent, c)

	ev := DriftEvent{Cluster: c, AtPoint: s.seen, NumSeeds: len(s.tempPoints)}
	if s.cfg.MaxClusters > 0 && len(s.Permanent) > s.cfg.MaxClusters {
		ev.Evicted = s.evictSmallest(c)
	}
	s.events = append(s.events, ev)

	// Fresh temporary cluster.
	s.tempPoints = nil
	s.tempDists = nil
	s.temp = nil
	s.klEWMA = 0
	s.tempObs = 0
	return &s.events[len(s.events)-1]
}

// subsumedBy returns the existing cluster that should absorb the current
// temporary window, or nil when the window is a genuinely new concept.
func (s *Set) subsumedBy() *Cluster {
	if s.cfg.MergeFactor <= 0 || len(s.Permanent) == 0 {
		return nil
	}
	cand := tensor.Centroid(s.tempPoints)
	var best *Cluster
	bestRatio := math.Inf(1)
	for _, c := range s.Permanent {
		if c.scale <= 0 {
			continue
		}
		ratio := tensor.L2(cand, c.centroid) / c.scale
		if ratio < bestRatio {
			bestRatio = ratio
			best = c
		}
	}
	if bestRatio < s.cfg.MergeFactor {
		return best
	}
	return nil
}

// evictSmallest removes the permanent cluster with the fewest points,
// never evicting the just-promoted cluster keep.
func (s *Set) evictSmallest(keep *Cluster) *Cluster {
	idx := -1
	for i, c := range s.Permanent {
		if c == keep {
			continue
		}
		if idx == -1 || c.n < s.Permanent[idx].n {
			idx = i
		}
	}
	if idx == -1 {
		return nil
	}
	victim := s.Permanent[idx]
	s.Permanent = append(s.Permanent[:idx], s.Permanent[idx+1:]...)
	return victim
}

// NearestRaw is Nearest with unnormalised Euclidean centroid distances —
// the distances Equation 8's inverse weighting needs (normalised distances
// saturate toward 1 far from a cluster, flattening the weights).
func (s *Set) NearestRaw(z []float64, k int) ([]*Cluster, []float64) {
	type cd struct {
		c *Cluster
		d float64
	}
	all := make([]cd, 0, len(s.Permanent))
	for _, c := range s.Permanent {
		all = append(all, cd{c, c.RawDistance(z)})
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].d < all[j-1].d; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if k > len(all) {
		k = len(all)
	}
	cs := make([]*Cluster, k)
	ds := make([]float64, k)
	for i := 0; i < k; i++ {
		cs[i] = all[i].c
		ds[i] = all[i].d
	}
	return cs, ds
}

// ByID returns the permanent cluster with the given id, or nil.
func (s *Set) ByID(id int) *Cluster {
	for _, c := range s.Permanent {
		if c.ID == id {
			return c
		}
	}
	return nil
}
