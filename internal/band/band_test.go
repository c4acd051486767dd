package band

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/tensor"
)

func TestHistogramAdd(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.05)
	h.Add(0.15)
	h.Add(0.15)
	if h.N != 3 || h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("histogram state: %+v", h)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-0.5)
	h.Add(1.5)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("clamping failed: %+v", h.Counts)
	}
}

func TestHistogramPanicsOnBadBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0)
}

func TestProbsSumToOne(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		h := NewHistogram(1 + rng.Intn(20))
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			h.Add(rng.Float64())
		}
		p := h.Probs()
		var s float64
		for _, v := range p {
			if v <= 0 {
				return false // smoothing must keep everything positive
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLProperties(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	if KL(p, p) > 1e-12 {
		t.Fatalf("KL(p,p)=%v, want 0", KL(p, p))
	}
	q := []float64{0.2, 0.3, 0.5}
	if KL(p, q) <= 0 {
		t.Fatal("KL of different distributions must be positive")
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(10)
		mk := func() []float64 {
			v := make([]float64, n)
			var s float64
			for i := range v {
				v[i] = rng.Float64() + 0.01
				s += v[i]
			}
			for i := range v {
				v[i] /= s
			}
			return v
		}
		return KL(mk(), mk()) >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KL([]float64{1}, []float64{0.5, 0.5})
}

func TestComputeBandCapturesDelta(t *testing.T) {
	// Gaussian-ish distances centred at 0.5.
	rng := tensor.NewRNG(5)
	h := NewHistogram(40)
	var dists []float64
	for i := 0; i < 5000; i++ {
		d := 0.5 + 0.1*rng.Norm()
		h.Add(d)
		dists = append(dists, d)
	}
	for _, delta := range []float64{0.5, 0.75, 0.9} {
		b := Compute(h, delta)
		// Count actual fraction inside the band.
		in := 0
		for _, d := range dists {
			if b.Contains(d) {
				in++
			}
		}
		frac := float64(in) / float64(len(dists))
		if frac < delta-0.03 {
			t.Fatalf("band %v holds %.3f < delta %.2f", b, frac, delta)
		}
		// The band should be tight: not the whole [0,1] range.
		if b.Width() > 0.8 {
			t.Fatalf("band too wide: %v", b)
		}
	}
}

func TestComputeBandMonotoneInDelta(t *testing.T) {
	rng := tensor.NewRNG(6)
	h := NewHistogram(32)
	for i := 0; i < 2000; i++ {
		h.Add(0.4 + 0.15*rng.Norm())
	}
	b1 := Compute(h, 0.5)
	b2 := Compute(h, 0.9)
	if b2.Width() < b1.Width() {
		t.Fatalf("larger delta must give wider band: %v vs %v", b1, b2)
	}
}

func TestComputeBandEmptyHistogram(t *testing.T) {
	b := Compute(NewHistogram(10), 0.75)
	if b.Lo != 0 || b.Hi != 1 {
		t.Fatalf("empty histogram should give full band, got %v", b)
	}
}

func TestComputeBandCentresOnPeak(t *testing.T) {
	h := NewHistogram(10)
	// All mass in bin 7 ([0.7, 0.8)).
	for i := 0; i < 100; i++ {
		h.Add(0.75)
	}
	b := Compute(h, 0.75)
	if !b.Contains(0.75) {
		t.Fatalf("band %v must contain the peak", b)
	}
	if b.Width() > 0.11 {
		t.Fatalf("single-bin mass should give a one-bin band: %v", b)
	}
}

func TestBandContains(t *testing.T) {
	b := Band{Lo: 0.2, Hi: 0.6}
	if !b.Contains(0.2) || !b.Contains(0.6) || !b.Contains(0.4) {
		t.Fatal("band bounds should be inclusive")
	}
	if b.Contains(0.19) || b.Contains(0.61) {
		t.Fatal("band must exclude points outside bounds")
	}
}

func TestTrackerKLConvergesOnStationaryStream(t *testing.T) {
	// A stationary distance stream must drive KL → 0 (the paper's
	// stability criterion DKL → 0 when PB = PA).
	rng := tensor.NewRNG(9)
	tr := NewTracker(24, 0.75)
	var last float64
	for i := 0; i < 3000; i++ {
		last = tr.Observe(0.5 + 0.08*rng.Norm())
	}
	if last > 1e-4 {
		t.Fatalf("KL should converge to ~0 on a stationary stream, got %v", last)
	}
}

func TestTrackerRebuild(t *testing.T) {
	tr := NewTracker(10, 0.5)
	tr.Observe(0.9)
	tr.Rebuild([]float64{0.1, 0.1, 0.15})
	if tr.Hist.N != 3 {
		t.Fatalf("rebuild N=%d", tr.Hist.N)
	}
	if !tr.Band().Contains(0.1) {
		t.Fatalf("rebuilt band %v should contain the new mass", tr.Band())
	}
}
