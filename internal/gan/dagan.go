package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// LossReport carries the per-component losses of one DA-GAN training
// iteration (LZ, LI, LR of Equation 6).
type LossReport struct {
	ImageDisc  float64 // LI: image discriminator loss
	LatentDisc float64 // LZ: latent discriminator loss
	Recon      float64 // LR: reconstruction loss
}

// DAGAN is the paper's dual-adversarial GAN (§4.3): encoder E, decoder G,
// latent discriminator DZ and image discriminator DI. DZ smooths the latent
// space (no holes); DI forces informative encodings (no blur). The trained
// encoder is the distance-preserving projection used by the DETECTOR.
//
// Loss weights follow §4.4: λZ = λI = 1 (adversaries must be balanced) and
// λR = 0.5 (reconstruction de-prioritised so it cannot re-open latent
// holes).
type DAGAN struct {
	Cfg Config
	Enc *nn.Network
	Dec *nn.Network
	DZ  *nn.Network
	DI  *nn.Network

	// LambdaR is the reconstruction weight (default 0.5 per the paper).
	LambdaR float64

	optE  *nn.Adam
	optG  *nn.Adam
	optDZ *nn.Adam
	optDI *nn.Adam
	optAE *nn.Adam
	rng   *tensor.RNG
}

// NewDAGAN builds a DA-GAN from the config.
func NewDAGAN(cfg Config) *DAGAN {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(cfg.Seed)
	return &DAGAN{
		Cfg:     cfg,
		Enc:     buildEncoder(cfg, rng),
		Dec:     buildDecoder(cfg, rng),
		DZ:      buildDiscriminator("latent-disc", cfg.Latent, rng),
		DI:      buildDiscriminator("image-disc", cfg.InputDim, rng),
		LambdaR: 0.5,
		// The encoder's fool-DZ step runs at a reduced rate: enough to close
		// latent holes, not enough to collapse unseen content into the
		// prior (which would erase the drift signal the DETECTOR needs).
		optE:  nn.NewAdam(cfg.LR * 0.3),
		optG:  nn.NewAdam(cfg.LR),
		optDZ: nn.NewAdam(cfg.LR),
		optDI: nn.NewAdam(cfg.LR),
		optAE: nn.NewAdam(cfg.LR),
		rng:   rng,
	}
}

// Fit trains the DA-GAN for the given number of epochs and returns the
// final epoch's mean losses.
func (d *DAGAN) Fit(data [][]float64, epochs, batch int) LossReport {
	var last LossReport
	for e := 0; e < epochs; e++ {
		last = d.TrainEpoch(data, batch)
	}
	return last
}

// TrainEpoch runs one epoch of Algorithm 1 iterations over shuffled
// minibatches and returns the mean losses.
func (d *DAGAN) TrainEpoch(data [][]float64, batch int) LossReport {
	var sum LossReport
	batches := miniBatches(len(data), batch, d.rng)
	for _, idx := range batches {
		x := gather(data, idx)
		r := d.TrainIteration(x)
		nn.Recycle(x)
		sum.ImageDisc += r.ImageDisc
		sum.LatentDisc += r.LatentDisc
		sum.Recon += r.Recon
	}
	n := float64(len(batches))
	return LossReport{ImageDisc: sum.ImageDisc / n, LatentDisc: sum.LatentDisc / n, Recon: sum.Recon / n}
}

// TrainIteration performs one Algorithm 1 update on a batch x:
//
//	(lines 3–4)  sample z′ ~ N(0,1); x′ = G(z′); z = E(x)
//	(lines 5–7)  update DI on real x vs synthetic x′
//	(line 8)     update decoder G to fool DI
//	(lines 9–11) update DZ on z′ vs encoded z
//	(line 12)    update encoder E to fool DZ
//	(line 13)    update E and G on λR · reconstruction loss
func (d *DAGAN) TrainIteration(x *tensor.Mat) LossReport {
	var rep LossReport
	n := x.R

	// Lines 3–4: minibatches.
	zPrime := nn.GetMatRaw(n, d.Cfg.Latent)
	d.rng.FillNormal(zPrime, 1)
	xPrime := d.Dec.Predict(zPrime)

	// Lines 5–7: image discriminator update.
	d.DI.ZeroGrad()
	pReal := d.DI.Forward(x, true)
	lReal, gReal := nn.BCEScalarTarget(pReal, 1)
	dReal := d.DI.Backward(gReal)
	pFake := d.DI.Forward(xPrime, true)
	lFake, gFake := nn.BCEScalarTarget(pFake, 0)
	dFake := d.DI.Backward(gFake)
	nn.ClipGrads(d.DI.Params(), 5)
	d.optDI.Step(d.DI.Params())
	rep.ImageDisc = lReal + lFake
	nn.Recycle(pReal, gReal, dReal, pFake, gFake, dFake)

	// Line 8: decoder fools DI.
	xg := d.Dec.Forward(zPrime, true)
	p := d.DI.Forward(xg, true)
	_, g := nn.BCEScalarTarget(p, 1)
	d.Dec.ZeroGrad()
	d.DI.ZeroGrad()
	gx := d.DI.Backward(g)
	dz := d.Dec.Backward(gx)
	nn.ClipGrads(d.Dec.Params(), 5)
	d.optG.Step(d.Dec.Params())
	nn.Recycle(xPrime, xg, p, g, gx, dz)

	// Lines 9–11: latent discriminator update.
	z := d.Enc.Predict(x)
	d.DZ.ZeroGrad()
	pzReal := d.DZ.Forward(zPrime, true)
	lzReal, gzReal := nn.BCEScalarTarget(pzReal, 1)
	dzReal := d.DZ.Backward(gzReal)
	pzFake := d.DZ.Forward(z, true)
	lzFake, gzFake := nn.BCEScalarTarget(pzFake, 0)
	dzFake := d.DZ.Backward(gzFake)
	nn.ClipGrads(d.DZ.Params(), 5)
	d.optDZ.Step(d.DZ.Params())
	rep.LatentDisc = lzReal + lzFake
	nn.Recycle(zPrime, z, pzReal, gzReal, dzReal, pzFake, gzFake, dzFake)

	// Line 12: encoder fools DZ.
	ze := d.Enc.Forward(x, true)
	pz := d.DZ.Forward(ze, true)
	_, gz := nn.BCEScalarTarget(pz, 1)
	d.Enc.ZeroGrad()
	d.DZ.ZeroGrad()
	gzi := d.DZ.Backward(gz)
	dxe := d.Enc.Backward(gzi)
	nn.ClipGrads(d.Enc.Params(), 5)
	d.optE.Step(d.Enc.Params())
	nn.Recycle(ze, pz, gz, gzi, dxe)

	// Line 13: reconstruction update of both E and G, weighted by λR.
	z2 := d.Enc.Forward(x, true)
	xr := d.Dec.Forward(z2, true)
	lRec, gRec := nn.BCE(xr, x)
	rep.Recon = lRec
	gRec.Scale(d.LambdaR)
	d.Enc.ZeroGrad()
	d.Dec.ZeroGrad()
	gz2 := d.Dec.Backward(gRec)
	dxr := d.Enc.Backward(gz2)
	params := append(d.Enc.Params(), d.Dec.Params()...)
	nn.ClipGrads(params, 5)
	d.optAE.Step(params)
	nn.Recycle(z2, xr, gRec, gz2, dxr)

	return rep
}

// Project encodes one image into the latent space. After training, this is
// the only DA-GAN component the DETECTOR uses (§4.5).
func (d *DAGAN) Project(x []float64) []float64 {
	out := d.Enc.Predict(tensor.FromVec(x))
	return rowCopy(out, 0)
}

// LatentDim returns the latent dimensionality.
func (d *DAGAN) LatentDim() int { return d.Cfg.Latent }

// ProjectBatch encodes many images in one forward pass.
func (d *DAGAN) ProjectBatch(rows [][]float64) [][]float64 {
	return projectBatch(d.Enc, rows)
}

// Reconstruct encodes then decodes one image.
func (d *DAGAN) Reconstruct(x []float64) []float64 {
	out := d.Dec.Predict(d.Enc.Predict(tensor.FromVec(x)))
	return rowCopy(out, 0)
}

// ReconError returns the mean squared reconstruction error of one image.
func (d *DAGAN) ReconError(x []float64) float64 {
	r := d.Reconstruct(x)
	var s float64
	for i, v := range r {
		dd := v - x[i]
		s += dd * dd
	}
	return s / float64(len(x))
}

// Decode maps a latent point back to image space.
func (d *DAGAN) Decode(z []float64) []float64 {
	out := d.Dec.Predict(tensor.FromVec(z))
	return rowCopy(out, 0)
}

// LatentRealism returns DZ(E(x)) — the latent discriminator's probability
// that x's encoding came from the smooth prior. §4.3: the latent
// discriminator "is adept at discriminating the inlier frames from the
// outlier frames", because outliers encode away from the prior.
func (d *DAGAN) LatentRealism(x []float64) float64 {
	z := d.Enc.Predict(tensor.FromVec(x))
	return d.DZ.Predict(z).At(0, 0)
}

var _ Projector = (*DAGAN)(nil)
