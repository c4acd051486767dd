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
	codec
	DZ *nn.Network
	DI *nn.Network

	// LambdaR is the reconstruction weight (default 0.5 per the paper).
	LambdaR float64

	optE  *nn.Adam
	optG  *nn.Adam
	optDZ *nn.Adam
	optDI *nn.Adam
	optAE *nn.Adam
}

// NewDAGAN builds a DA-GAN from the config.
func NewDAGAN(cfg Config) *DAGAN {
	c := newCodec(cfg)
	return &DAGAN{
		codec:   c,
		DZ:      buildDiscriminator("latent-disc", cfg.Latent, c.rng),
		DI:      buildDiscriminator("image-disc", cfg.InputDim, c.rng),
		LambdaR: 0.5,
		// The encoder's fool-DZ step runs at a reduced rate: enough to close
		// latent holes, not enough to collapse unseen content into the
		// prior (which would erase the drift signal the DETECTOR needs).
		optE:  nn.NewAdam(cfg.LR * 0.3),
		optG:  nn.NewAdam(cfg.LR),
		optDZ: nn.NewAdam(cfg.LR),
		optDI: nn.NewAdam(cfg.LR),
		optAE: nn.NewAdam(cfg.LR),
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
	n := d.epoch(data, batch, func(x *tensor.Mat) {
		r := d.TrainIteration(x)
		sum.ImageDisc += r.ImageDisc
		sum.LatentDisc += r.LatentDisc
		sum.Recon += r.Recon
	})
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

	// Lines 3–4: minibatches.
	zPrime := nn.GetMatRaw(x.R, d.Cfg.Latent)
	d.rng.FillNormal(zPrime, 1)
	xPrime := d.Dec.Predict(zPrime)

	// Lines 5–7: image discriminator update.
	rep.ImageDisc = discStep(d.DI, d.optDI, x, xPrime)
	nn.Recycle(xPrime)

	// Line 8: decoder fools DI.
	foolStep(d.Dec, d.DI, d.optG, zPrime)

	// Lines 9–11: latent discriminator update.
	z := d.Enc.Predict(x)
	rep.LatentDisc = discStep(d.DZ, d.optDZ, zPrime, z)
	nn.Recycle(zPrime, z)

	// Line 12: encoder fools DZ.
	foolStep(d.Enc, d.DZ, d.optE, x)

	// Line 13: reconstruction update of both E and G, weighted by λR.
	rep.Recon = d.reconStep(x, d.optAE, d.LambdaR, true)
	return rep
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
