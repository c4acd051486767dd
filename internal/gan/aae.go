package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// AAE is the adversarial autoencoder of §2.3: an AE whose latent space is
// pushed toward N(0,1) by a latent discriminator DZ, closing the holes of
// the standard AE at the cost of some blurriness (Figure 2b).
type AAE struct {
	codec
	DZ *nn.Network

	optAE *nn.Adam
	optDZ *nn.Adam
	optE  *nn.Adam
}

// NewAAE builds an adversarial autoencoder from the config.
func NewAAE(cfg Config) *AAE {
	c := newCodec(cfg)
	return &AAE{
		codec: c,
		DZ:    buildDiscriminator("latent-disc", cfg.Latent, c.rng),
		optAE: nn.NewAdam(cfg.LR),
		optDZ: nn.NewAdam(cfg.LR),
		optE:  nn.NewAdam(cfg.LR * 0.5),
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
	n := a.epoch(data, batch, func(x *tensor.Mat) {
		// 1. Reconstruction phase.
		total += a.reconStep(x, a.optAE, 1, false)

		// 2. Latent discriminator: N(0,1) real vs encoded fake (Eq. 3).
		zReal := nn.GetMatRaw(x.R, a.Cfg.Latent)
		a.rng.FillNormal(zReal, 1)
		zFake := a.Enc.Predict(x)
		discStep(a.DZ, a.optDZ, zReal, zFake)
		nn.Recycle(zReal, zFake)

		// 3. Encoder regularisation: fool DZ.
		foolStep(a.Enc, a.DZ, a.optE, x)
	})
	return total / n
}

var _ Projector = (*AAE)(nil)
