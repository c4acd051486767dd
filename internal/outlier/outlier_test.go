package outlier

import (
	"math"
	"testing"

	"odin/internal/gan"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// blob samples n points around centre with given sigma.
func blob(rng *tensor.RNG, centre []float64, sigma float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(centre))
		for j, c := range centre {
			p[j] = c + sigma*rng.Norm()
		}
		out[i] = p
	}
	return out
}

func TestLOFSeparatesBlobs(t *testing.T) {
	rng := tensor.NewRNG(1)
	train := blob(rng, []float64{0, 0}, 0.5, 150)
	lof := NewLOF(10)
	lof.Fit(train)

	inScore := lof.Score([]float64{0.1, -0.2})
	outScore := lof.Score([]float64{8, 8})
	if outScore < inScore*2 {
		t.Fatalf("LOF failed: inlier=%v outlier=%v", inScore, outScore)
	}
	if inScore > 2 {
		t.Fatalf("inlier LOF should be near 1, got %v", inScore)
	}
}

func TestLOFDefaultK(t *testing.T) {
	l := NewLOF(0)
	if l.K != 10 {
		t.Fatalf("default K=%d", l.K)
	}
}

func TestPCARecoversSubspace(t *testing.T) {
	// Data on a 2-D plane inside 10-D space; PCA(2) must reconstruct it
	// nearly perfectly, and off-plane points must score high.
	rng := tensor.NewRNG(2)
	mk := func(a, b float64) []float64 {
		v := make([]float64, 10)
		for j := 0; j < 10; j++ {
			v[j] = a*float64(j%3) + b*float64((j+1)%4)
		}
		return v
	}
	var train [][]float64
	for i := 0; i < 200; i++ {
		train = append(train, mk(rng.Norm(), rng.Norm()))
	}
	p := NewPCA(2)
	p.Fit(train)
	in := p.Score(mk(0.5, -1))
	off := mk(0.5, -1)
	off[7] += 5 // leave the plane
	out := p.Score(off)
	if in > 1e-6 {
		t.Fatalf("on-plane reconstruction error should be ~0, got %v", in)
	}
	if out < 0.1 {
		t.Fatalf("off-plane point should have high error, got %v", out)
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	rng := tensor.NewRNG(3)
	train := blob(rng, make([]float64, 8), 1, 100)
	p := NewPCA(4)
	p.Fit(train)
	comps := p.components
	if len(comps) != 4 {
		t.Fatalf("got %d components", len(comps))
	}
	for i := range comps {
		for j := range comps {
			dot := tensor.Dot(comps[i], comps[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Fatalf("components %d,%d not orthonormal: %v", i, j, dot)
			}
		}
	}
}

func TestPCAProjectDim(t *testing.T) {
	rng := tensor.NewRNG(4)
	train := blob(rng, make([]float64, 6), 1, 50)
	p := NewPCA(3)
	p.Fit(train)
	z := p.Project(train[0])
	if len(z) != 3 || p.LatentDim() != 3 {
		t.Fatalf("projection dim %d", len(z))
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 85, FN: 5}
	if math.Abs(c.Precision()-0.8) > 1e-12 {
		t.Fatalf("precision %v", c.Precision())
	}
	if math.Abs(c.Recall()-8.0/13) > 1e-12 {
		t.Fatalf("recall %v", c.Recall())
	}
	if c.F1() <= 0 || c.F1() > 1 {
		t.Fatalf("f1 %v", c.F1())
	}
	empty := Confusion{}
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatal("degenerate precision/recall should be 1")
	}
}

func TestEvaluateCounts(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.2, 0.8}
	labels := []bool{false, true, true, false}
	c := Evaluate(scores, labels, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 5 {
		t.Fatal("quantile extremes")
	}
	if Quantile(v, 0.5) != 3 {
		t.Fatalf("median %v", Quantile(v, 0.5))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Input must not be mutated.
	u := []float64{3, 1, 2}
	Quantile(u, 0.5)
	if u[0] != 3 {
		t.Fatal("quantile mutated input")
	}
}

func TestDRAEDetectsDigitOutliers(t *testing.T) {
	train := digitRows(10, []int{0, 1, 2}, 60)
	cfg := gan.Config{InputDim: len(train[0]), Latent: 10, Hidden: []int{64, 24}, LR: 0.002, Seed: 3}
	d := NewDRAE(cfg, 10, 32)
	d.Fit(train)

	inliers := digitRows(11, []int{0, 1, 2}, 25)
	outliers := digitRows(12, []int{4, 7}, 25)
	var scores []float64
	var labels []bool
	for _, x := range inliers {
		scores = append(scores, d.Score(x))
		labels = append(labels, false)
	}
	for _, x := range outliers {
		scores = append(scores, d.Score(x))
		labels = append(labels, true)
	}
	if best := bestF1(scores, labels); best < 0.6 {
		t.Fatalf("DRAE best F1 too low: %v", best)
	}
}

func TestLatentKNNWithDAGAN(t *testing.T) {
	train := digitRows(13, []int{0, 1, 2}, 60)
	cfg := gan.Config{InputDim: len(train[0]), Latent: 10, Hidden: []int{64, 24}, LR: 0.002, Seed: 4}
	det := NewDAGANDetector(cfg, 15, 32, 5)
	det.Fit(train)
	if det.dg == nil {
		t.Fatal("projector should exist after Fit")
	}

	inliers := digitRows(14, []int{0, 1, 2}, 25)
	outliers := digitRows(15, []int{8, 9}, 25)
	var scores []float64
	var labels []bool
	for _, x := range inliers {
		scores = append(scores, det.Score(x))
		labels = append(labels, false)
	}
	for _, x := range outliers {
		scores = append(scores, det.Score(x))
		labels = append(labels, true)
	}
	if best := bestF1(scores, labels); best < 0.7 {
		t.Fatalf("DA-GAN latent detector best F1 too low: %v", best)
	}
}

func TestLatentKNNScoreOrdering(t *testing.T) {
	// A detector over an identity-like projection (PCA with full rank) must
	// score far points higher.
	rng := tensor.NewRNG(16)
	train := blob(rng, []float64{0, 0, 0}, 0.3, 80)
	det := NewLatentKNN(5, func(data [][]float64) gan.Projector {
		p := NewPCA(3)
		p.Fit(data)
		return p
	})
	det.Fit(train)
	near := det.Score([]float64{0.1, 0, 0})
	far := det.Score([]float64{5, 5, 5})
	if far <= near {
		t.Fatalf("far point must score higher: near=%v far=%v", near, far)
	}
}

// bestF1 is the oracle upper bound on outlier-class F1: the best any single
// score threshold achieves against the labels.
func bestF1(scores []float64, isOutlier []bool) float64 {
	best := 0.0
	for _, thr := range scores {
		if f := Evaluate(scores, isOutlier, thr).F1(); f > best {
			best = f
		}
	}
	return best
}

// digitRows renders digits and returns flattened pixel rows (shared helper).
func digitRows(seed uint64, classes []int, n int) [][]float64 {
	ds := synth.DigitDataset(seed, classes, n)
	rows := make([][]float64, len(ds))
	for i, li := range ds {
		rows[i] = li.Image.Flat()
	}
	return rows
}
