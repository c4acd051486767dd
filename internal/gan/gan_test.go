package gan

import (
	"math"
	"testing"

	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// digitRows renders digits and returns flattened pixel rows.
func digitRows(seed uint64, classes []int, n int) [][]float64 {
	ds := synth.DigitDataset(seed, classes, n)
	rows := make([][]float64, len(ds))
	for i, li := range ds {
		rows[i] = li.Image.Flat()
	}
	return rows
}

func smallConfig(dim int, seed uint64) Config {
	return Config{InputDim: dim, Latent: 12, Hidden: []int{96, 32}, LR: 0.002, Seed: seed}
}

func TestToBatchAndGather(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := ToBatch(rows)
	if m.R != 3 || m.C != 2 || m.At(2, 1) != 6 {
		t.Fatalf("ToBatch wrong: %+v", m)
	}
	g := gather(rows, []int{2, 0})
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 {
		t.Fatalf("gather wrong: %+v", g.V)
	}
	empty := ToBatch(nil)
	if empty.R != 0 {
		t.Fatal("empty batch should have 0 rows")
	}
}

func TestMiniBatchesCoverAll(t *testing.T) {
	rng := tensor.NewRNG(3)
	batches := miniBatches(10, 3, rng)
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("minibatches covered %d of 10", len(seen))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{InputDim: 0, Latent: 4, LR: 0.1},
		{InputDim: 4, Latent: 0, LR: 0.1},
		{InputDim: 4, Latent: 4, LR: 0},
	}
	for i, cfg := range bad {
		if cfg.validate() == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

// sameWeights reports whether a and b hold bit-identical parameters.
func sameWeights(a, b *nn.Network) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if len(pa[i].W.V) != len(pb[i].W.V) {
			return false
		}
		for j, v := range pa[i].W.V {
			if math.Float64bits(v) != math.Float64bits(pb[i].W.V[j]) {
				return false
			}
		}
	}
	return true
}

// TestCodecDrawOrder pins the construction draw order every checkpointed
// projector and figure depends on: one RNG seeded with Config.Seed draws
// the encoder, then the decoder, then each discriminator, so the three
// models built from one Config share their encoder–decoder start and the
// AAE's DZ is the DA-GAN's.
func TestCodecDrawOrder(t *testing.T) {
	cfg := smallConfig(64, 21)
	ae, aae, dg := NewAutoencoder(cfg), NewAAE(cfg), NewDAGAN(cfg)
	if !sameWeights(ae.Enc, buildEncoder(cfg, tensor.NewRNG(cfg.Seed))) {
		t.Fatal("the encoder is not the seeded RNG's first draw")
	}
	for _, m := range []struct {
		name     string
		enc, dec *nn.Network
	}{{"AAE", aae.Enc, aae.Dec}, {"DA-GAN", dg.Enc, dg.Dec}} {
		if !sameWeights(ae.Enc, m.enc) || !sameWeights(ae.Dec, m.dec) {
			t.Fatalf("%s's encoder–decoder differs from the AE's at construction", m.name)
		}
	}
	if !sameWeights(aae.DZ, dg.DZ) {
		t.Fatal("the AAE's DZ differs from the DA-GAN's at construction")
	}
	if sameWeights(ae.Enc, NewAutoencoder(smallConfig(64, 22)).Enc) {
		t.Fatal("the seed does not reach the weights")
	}
}

func TestAutoencoderLearnsDigits(t *testing.T) {
	rows := digitRows(1, []int{0, 1, 2}, 60)
	ae := NewAutoencoder(smallConfig(len(rows[0]), 1))
	first := ae.TrainEpoch(rows, 32)
	last := ae.Fit(rows, 6, 32)
	if !(last < first) {
		t.Fatalf("reconstruction loss did not decrease: first=%v last=%v", first, last)
	}
	// Projection shape.
	z := ae.Project(rows[0])
	if len(z) != ae.LatentDim() {
		t.Fatalf("latent dim %d, want %d", len(z), ae.LatentDim())
	}
	// Reconstruction shape and range.
	r := ae.Reconstruct(rows[0])
	if len(r) != len(rows[0]) {
		t.Fatal("reconstruction shape")
	}
	for _, v := range r {
		if v < 0 || v > 1 {
			t.Fatalf("reconstruction out of [0,1]: %v", v)
		}
	}
}

// TestProjectionFailure reproduces the Figure 5 phenomenon: an AE trained
// on digits 0–2 reconstructs unseen digits 3–9 much worse — high
// reconstruction error indicates drift.
func TestProjectionFailure(t *testing.T) {
	train := digitRows(2, []int{0, 1, 2}, 100)
	ae := NewAutoencoder(smallConfig(len(train[0]), 2))
	ae.Fit(train, 25, 32)

	inlier := digitRows(3, []int{0, 1, 2}, 20)
	outlier := digitRows(4, []int{5, 6, 7}, 20)
	var inErr, outErr float64
	for _, x := range inlier {
		inErr += ae.ReconError(x)
	}
	for _, x := range outlier {
		outErr += ae.ReconError(x)
	}
	inErr /= float64(len(inlier))
	outErr /= float64(len(outlier))
	if outErr < inErr*1.2 {
		t.Fatalf("outlier recon error (%v) should exceed inlier (%v)", outErr, inErr)
	}
}

func TestAAETrainsAndRegularisesLatent(t *testing.T) {
	rows := digitRows(5, []int{0, 1}, 60)
	cfg := smallConfig(len(rows[0]), 5)
	aae := NewAAE(cfg)
	aae.Fit(rows, 8, 32)

	// The AAE latent distribution should sit near N(0,1): mean norm within
	// a loose band around 1. An unregularised AE has no such constraint.
	// Mean of ‖z‖/√dim over the data: ≈1 under N(0,1).
	var meanNorm float64
	for _, x := range rows {
		var s float64
		for _, v := range aae.Project(x) {
			s += v * v
		}
		meanNorm += math.Sqrt(s / float64(cfg.Latent))
	}
	meanNorm /= float64(len(rows))
	if meanNorm < 0.3 || meanNorm > 3 {
		t.Fatalf("AAE latent norm %v too far from N(0,1)", meanNorm)
	}
	z := aae.Project(rows[0])
	if len(z) != cfg.Latent {
		t.Fatal("AAE latent dim")
	}
	r := aae.Reconstruct(rows[0])
	if len(r) != len(rows[0]) {
		t.Fatal("AAE reconstruction shape")
	}
}

func TestDAGANTrainIterationLosses(t *testing.T) {
	rows := digitRows(6, []int{0, 1}, 32)
	d := NewDAGAN(smallConfig(len(rows[0]), 6))
	rep := d.TrainIteration(ToBatch(rows))
	for name, v := range map[string]float64{
		"imageDisc":  rep.ImageDisc,
		"latentDisc": rep.LatentDisc,
		"recon":      rep.Recon,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("loss %s invalid: %v", name, v)
		}
	}
}

func TestDAGANLearnsReconstruction(t *testing.T) {
	rows := digitRows(7, []int{0, 1, 2}, 60)
	d := NewDAGAN(smallConfig(len(rows[0]), 7))
	first := d.TrainEpoch(rows, 32)
	last := d.Fit(rows, 8, 32)
	if !(last.Recon < first.Recon) {
		t.Fatalf("DA-GAN recon loss did not decrease: %v -> %v", first.Recon, last.Recon)
	}
}

// TestDAGANLatentSeparatesClasses is the core property the DETECTOR relies
// on: different concepts land in different latent regions.
func TestDAGANLatentSeparatesClasses(t *testing.T) {
	a := digitRows(8, []int{1}, 50)
	b := digitRows(9, []int{8}, 50)
	train := append(append([][]float64{}, a...), b...)
	d := NewDAGAN(smallConfig(len(a[0]), 8))
	d.Fit(train, 10, 32)

	za := d.ProjectBatch(a)
	zb := d.ProjectBatch(b)
	ca := tensor.Centroid(za)
	cb := tensor.Centroid(zb)
	inter := tensor.L2(ca, cb)
	var intra float64
	for _, z := range za {
		intra += tensor.L2(z, ca)
	}
	intra /= float64(len(za))
	if inter < intra*0.5 {
		t.Fatalf("latent classes not separated: inter=%v intra=%v", inter, intra)
	}
}

func TestDAGANProjectBatchMatchesProject(t *testing.T) {
	rows := digitRows(10, []int{0}, 4)
	d := NewDAGAN(smallConfig(len(rows[0]), 10))
	batch := d.ProjectBatch(rows)
	for i, x := range rows {
		single := d.Project(x)
		for j := range single {
			if math.Abs(single[j]-batch[i][j]) > 1e-12 {
				t.Fatal("batch and single projection disagree")
			}
		}
	}
}

func TestCycleErrorAAEBelowAE(t *testing.T) {
	rows := digitRows(12, []int{0, 1, 2}, 120)
	cfg := smallConfig(len(rows[0]), 12)
	ae := NewAutoencoder(cfg)
	ae.Fit(rows, 20, 32)
	aae := NewAAE(cfg)
	aae.Fit(rows, 20, 32)

	ceAE := CycleError(ae, ae, 50, 99)
	ceAAE := CycleError(aae, aae, 50, 99)
	// The AAE's regularised latent space must re-encode sampled points
	// substantially better than the unregularised AE (Figure 2 holes).
	if ceAAE > ceAE {
		t.Fatalf("AAE cycle error (%v) should be below AE (%v)", ceAAE, ceAE)
	}
}

func TestMeanReconErrorEmptyData(t *testing.T) {
	rows := digitRows(13, []int{0}, 4)
	ae := NewAutoencoder(smallConfig(len(rows[0]), 13))
	if MeanReconError(ae, nil) != 0 {
		t.Fatal("empty data should give 0")
	}
	if MeanReconError(ae, rows) <= 0 {
		t.Fatal("untrained recon error should be positive")
	}
}
