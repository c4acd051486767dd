package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// Autoencoder is the standard AE of §2.3: encoder + decoder trained with
// reconstruction loss only. Its latent space develops holes under drift
// (Figure 2a), which is exactly the failure mode DA-GAN exists to fix; it
// is retained both as a Table 1 baseline and as the body of DRAE.
type Autoencoder struct {
	codec

	opt *nn.Adam
}

// NewAutoencoder builds an AE from the config.
func NewAutoencoder(cfg Config) *Autoencoder {
	return &Autoencoder{codec: newCodec(cfg), opt: nn.NewAdam(cfg.LR)}
}

// Fit trains the AE for the given number of epochs and returns the final
// epoch's mean reconstruction loss.
func (a *Autoencoder) Fit(data [][]float64, epochs, batch int) float64 {
	var last float64
	for e := 0; e < epochs; e++ {
		last = a.TrainEpoch(data, batch)
	}
	return last
}

// TrainEpoch runs one epoch of minibatch reconstruction training and
// returns the mean loss.
func (a *Autoencoder) TrainEpoch(data [][]float64, batch int) float64 {
	var total float64
	n := a.epoch(data, batch, func(x *tensor.Mat) { total += a.reconStep(x, a.opt, 1, false) })
	return total / n
}

var _ Projector = (*Autoencoder)(nil)
