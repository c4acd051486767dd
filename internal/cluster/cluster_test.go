package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/tensor"
)

// gaussianBlob samples points around a centre with given spread.
func gaussianBlob(rng *tensor.RNG, centre []float64, sigma float64) []float64 {
	out := make([]float64, len(centre))
	for i, c := range centre {
		out[i] = c + sigma*rng.Norm()
	}
	return out
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.MinPoints = 40
	cfg.StabilitySteps = 10
	cfg.TempWindow = 80
	cfg.MergeFactor = 2.0
	return cfg
}

func TestNewSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid config")
		}
	}()
	NewSet(Config{Bins: 0, Delta: 0.5})
}

func TestFirstConceptFormsCluster(t *testing.T) {
	rng := tensor.NewRNG(1)
	s := NewSet(quickConfig())
	centre := []float64{2, -1, 0.5, 3}
	var drifted bool
	for i := 0; i < 400; i++ {
		a := s.Observe(gaussianBlob(rng, centre, 0.3))
		if a.Drift != nil {
			drifted = true
		}
	}
	if !drifted {
		t.Fatal("a stationary concept stream must form a cluster")
	}
	if len(s.Permanent) != 1 {
		t.Fatalf("expected exactly 1 cluster, got %d", len(s.Permanent))
	}
	c := s.Permanent[0]
	for i, want := range centre {
		if math.Abs(c.centroid[i]-want) > 0.2 {
			t.Fatalf("centroid dim %d = %v, want ~%v", i, c.centroid[i], want)
		}
	}
}

func TestSecondConceptTriggersDrift(t *testing.T) {
	rng := tensor.NewRNG(2)
	s := NewSet(quickConfig())
	c1 := []float64{0, 0, 0, 0}
	c2 := []float64{8, 8, 8, 8}
	for i := 0; i < 400; i++ {
		s.Observe(gaussianBlob(rng, c1, 0.3))
	}
	if len(s.Permanent) != 1 {
		t.Fatalf("setup: expected 1 cluster, got %d", len(s.Permanent))
	}
	// Concept 1 points keep landing mostly in the existing cluster. A
	// ∆=0.75 band excludes ~25% of in-concept mass by construction, so the
	// expectation is "majority inside", not "all inside".
	outliers := 0
	for i := 0; i < 50; i++ {
		a := s.Observe(gaussianBlob(rng, c1, 0.3))
		if a.Outlier {
			outliers++
		}
	}
	if outliers > 25 {
		t.Fatalf("too many in-concept points flagged as outliers: %d/50", outliers)
	}
	// Concept 2 arrives: drift must be detected.
	var drift bool
	for i := 0; i < 400 && !drift; i++ {
		a := s.Observe(gaussianBlob(rng, c2, 0.3))
		drift = drift || a.Drift != nil
	}
	if !drift {
		t.Fatal("second concept did not trigger drift")
	}
	if len(s.Permanent) != 2 {
		t.Fatalf("expected 2 clusters, got %d", len(s.Permanent))
	}
	if len(s.Events()) != 2 {
		t.Fatalf("expected 2 drift events, got %d", len(s.Events()))
	}
}

func TestOutlierRouting(t *testing.T) {
	rng := tensor.NewRNG(3)
	s := NewSet(quickConfig())
	for i := 0; i < 400; i++ {
		s.Observe(gaussianBlob(rng, []float64{0, 0}, 0.3))
	}
	a := s.Observe([]float64{50, 50})
	if !a.Outlier || a.Primary != nil {
		t.Fatalf("far point must be an outlier: %+v", a)
	}
	if len(s.tempPoints) == 0 {
		t.Fatal("outlier should land in the temporary cluster")
	}
}

func TestMaxClustersEviction(t *testing.T) {
	rng := tensor.NewRNG(4)
	cfg := quickConfig()
	cfg.MaxClusters = 2
	s := NewSet(cfg)
	centres := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for _, c := range centres {
		for i := 0; i < 400; i++ {
			s.Observe(gaussianBlob(rng, c, 0.3))
		}
	}
	if len(s.Permanent) > 2 {
		t.Fatalf("MaxClusters=2 violated: %d clusters", len(s.Permanent))
	}
	// The last event must record an eviction.
	evs := s.Events()
	if len(evs) < 3 {
		t.Fatalf("expected 3 drift events, got %d", len(evs))
	}
	if evs[len(evs)-1].Evicted == nil {
		t.Fatal("third promotion should have evicted a cluster")
	}
}

func TestByID(t *testing.T) {
	rng := tensor.NewRNG(6)
	s := NewSet(quickConfig())
	for i := 0; i < 400; i++ {
		s.Observe(gaussianBlob(rng, []float64{3, 3}, 0.3))
	}
	if len(s.Permanent) == 0 {
		t.Fatal("no cluster formed")
	}
	id := s.Permanent[0].ID
	if s.ByID(id) != s.Permanent[0] {
		t.Fatal("ByID lookup failed")
	}
	if s.ByID(999) != nil {
		t.Fatal("unknown id should return nil")
	}
}

func TestClusterDistanceNormalised(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		c := newCluster(0, 16, 0.75)
		centre := rng.NormVec(4)
		for i := 0; i < 50; i++ {
			c.Add(gaussianBlob(rng, centre, 0.5))
		}
		for i := 0; i < 20; i++ {
			d := c.Distance(rng.NormVec(4))
			if d < 0 || d >= 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterDistanceMonotoneInRadius(t *testing.T) {
	rng := tensor.NewRNG(7)
	c := newCluster(0, 16, 0.75)
	for i := 0; i < 100; i++ {
		c.Add(gaussianBlob(rng, []float64{0, 0}, 1))
	}
	d1 := c.Distance([]float64{1, 0})
	d2 := c.Distance([]float64{5, 0})
	d3 := c.Distance([]float64{20, 0})
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("distance not monotone: %v %v %v", d1, d2, d3)
	}
}

func TestEmptyClusterBehaviour(t *testing.T) {
	c := newCluster(0, 16, 0.75)
	if c.Contains([]float64{1, 2}) {
		t.Fatal("empty cluster cannot contain points")
	}
	if !math.IsInf(c.RawDistance([]float64{1, 2}), 1) {
		t.Fatal("empty cluster raw distance should be +inf")
	}
	if c.Distance([]float64{1, 2}) != 0 {
		t.Fatal("empty cluster normalised distance defined as 0")
	}
}

func TestSeenCounter(t *testing.T) {
	rng := tensor.NewRNG(8)
	s := NewSet(quickConfig())
	for i := 0; i < 25; i++ {
		s.Observe(gaussianBlob(rng, []float64{0}, 1))
	}
	if s.seen != 25 {
		t.Fatalf("seen=%d, want 25", s.seen)
	}
}

// TestMixedTransitionStillConverges verifies the sliding window lets a new
// concept stabilise even when the temp cluster initially holds stale
// outliers from a noisy transition period.
func TestMixedTransitionStillConverges(t *testing.T) {
	rng := tensor.NewRNG(9)
	cfg := quickConfig()
	s := NewSet(cfg)
	for i := 0; i < 400; i++ {
		s.Observe(gaussianBlob(rng, []float64{0, 0}, 0.3))
	}
	// Noise burst: scattered outliers that should NOT form a cluster.
	for i := 0; i < 30; i++ {
		s.Observe(rng.NormVec(2))
	}
	before := len(s.Permanent)
	// Now a coherent new concept.
	var drift bool
	for i := 0; i < 600 && !drift; i++ {
		a := s.Observe(gaussianBlob(rng, []float64{9, -9}, 0.3))
		drift = drift || a.Drift != nil
	}
	if !drift {
		t.Fatal("new concept after noisy transition did not stabilise")
	}
	if len(s.Permanent) != before+1 {
		t.Fatalf("expected %d clusters, got %d", before+1, len(s.Permanent))
	}
}
