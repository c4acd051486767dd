package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// AAE is the adversarial autoencoder of §2.3: an AE whose latent space is
// pushed toward N(0,1) by a latent discriminator DZ, closing the holes of
// the standard AE at the cost of some blurriness (Figure 2b).
type AAE struct {
	Cfg Config
	Enc *nn.Network
	Dec *nn.Network
	DZ  *nn.Network

	optAE *nn.Adam
	optDZ *nn.Adam
	optE  *nn.Adam
	rng   *tensor.RNG
}

// NewAAE builds an adversarial autoencoder from the config.
func NewAAE(cfg Config) *AAE {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(cfg.Seed)
	return &AAE{
		Cfg:   cfg,
		Enc:   buildEncoder(cfg, rng),
		Dec:   buildDecoder(cfg, rng),
		DZ:    buildDiscriminator("latent-disc", cfg.Latent, rng),
		optAE: nn.NewAdam(cfg.LR),
		optDZ: nn.NewAdam(cfg.LR),
		optE:  nn.NewAdam(cfg.LR * 0.5),
		rng:   rng,
	}
}

// Fit trains the AAE for the given number of epochs and returns the final
// epoch's mean reconstruction loss.
func (a *AAE) Fit(data [][]float64, epochs, batch int) float64 {
	var last float64
	for e := 0; e < epochs; e++ {
		last = a.TrainEpoch(data, batch)
	}
	return last
}

// TrainEpoch runs one epoch of the three-phase AAE update (reconstruction,
// latent discriminator, encoder regularisation) and returns the mean
// reconstruction loss.
func (a *AAE) TrainEpoch(data [][]float64, batch int) float64 {
	var total float64
	batches := miniBatches(len(data), batch, a.rng)
	for _, idx := range batches {
		x := gather(data, idx)

		// 1. Reconstruction phase.
		z := a.Enc.Forward(x, true)
		xr := a.Dec.Forward(z, true)
		loss, grad := nn.BCE(xr, x)
		total += loss
		a.Enc.ZeroGrad()
		a.Dec.ZeroGrad()
		gz := a.Dec.Backward(grad)
		dIn := a.Enc.Backward(gz)
		a.optAE.Step(append(a.Enc.Params(), a.Dec.Params()...))
		nn.Recycle(z, xr, grad, gz, dIn)

		// 2. Latent discriminator: N(0,1) real vs encoded fake (Eq. 3).
		zReal := nn.GetMatRaw(x.R, a.Cfg.Latent)
		a.rng.FillNormal(zReal, 1)
		zFake := a.Enc.Predict(x)
		a.DZ.ZeroGrad()
		pReal := a.DZ.Forward(zReal, true)
		_, gReal := nn.BCEScalarTarget(pReal, 1)
		dReal := a.DZ.Backward(gReal)
		pFake := a.DZ.Forward(zFake, true)
		_, gFake := nn.BCEScalarTarget(pFake, 0)
		dFake := a.DZ.Backward(gFake)
		nn.ClipGrads(a.DZ.Params(), 5)
		a.optDZ.Step(a.DZ.Params())
		nn.Recycle(zReal, zFake, pReal, gReal, dReal, pFake, gFake, dFake)

		// 3. Encoder regularisation: fool DZ.
		z3 := a.Enc.Forward(x, true)
		p := a.DZ.Forward(z3, true)
		_, g := nn.BCEScalarTarget(p, 1)
		a.Enc.ZeroGrad()
		a.DZ.ZeroGrad()
		gz3 := a.DZ.Backward(g)
		dIn3 := a.Enc.Backward(gz3)
		nn.ClipGrads(a.Enc.Params(), 5)
		a.optE.Step(a.Enc.Params())
		nn.Recycle(x, z3, p, g, gz3, dIn3)
	}
	return total / float64(len(batches))
}

// Project encodes one image into the latent space.
func (a *AAE) Project(x []float64) []float64 {
	out := a.Enc.Predict(tensor.FromVec(x))
	return rowCopy(out, 0)
}

// LatentDim returns the latent dimensionality.
func (a *AAE) LatentDim() int { return a.Cfg.Latent }

// ProjectBatch encodes many images in one forward pass.
func (a *AAE) ProjectBatch(rows [][]float64) [][]float64 {
	return projectBatch(a.Enc, rows)
}

// Reconstruct encodes then decodes one image.
func (a *AAE) Reconstruct(x []float64) []float64 {
	out := a.Dec.Predict(a.Enc.Predict(tensor.FromVec(x)))
	return rowCopy(out, 0)
}

// Decode maps a latent point back to image space.
func (a *AAE) Decode(z []float64) []float64 {
	out := a.Dec.Predict(tensor.FromVec(z))
	return rowCopy(out, 0)
}

var _ Projector = (*AAE)(nil)
