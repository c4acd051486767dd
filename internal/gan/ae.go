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
	Cfg Config
	Enc *nn.Network
	Dec *nn.Network

	opt *nn.Adam
	rng *tensor.RNG
}

// NewAutoencoder builds an AE from the config.
func NewAutoencoder(cfg Config) *Autoencoder {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(cfg.Seed)
	return &Autoencoder{
		Cfg: cfg,
		Enc: buildEncoder(cfg, rng),
		Dec: buildDecoder(cfg, rng),
		opt: nn.NewAdam(cfg.LR),
		rng: rng,
	}
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
	batches := miniBatches(len(data), batch, a.rng)
	for _, idx := range batches {
		x := gather(data, idx)
		z := a.Enc.Forward(x, true)
		xr := a.Dec.Forward(z, true)
		loss, grad := nn.BCE(xr, x)
		total += loss
		a.Enc.ZeroGrad()
		a.Dec.ZeroGrad()
		gz := a.Dec.Backward(grad)
		dIn := a.Enc.Backward(gz)
		a.opt.Step(append(a.Enc.Params(), a.Dec.Params()...))
		// Everything this step produced is dead now; hand it back so the
		// next minibatch allocates nothing.
		nn.Recycle(x, z, xr, grad, gz, dIn)
	}
	return total / float64(len(batches))
}

// Project encodes one image into the latent space.
func (a *Autoencoder) Project(x []float64) []float64 {
	out := a.Enc.Predict(tensor.FromVec(x))
	return rowCopy(out, 0)
}

// LatentDim returns the latent dimensionality.
func (a *Autoencoder) LatentDim() int { return a.Cfg.Latent }

// ProjectBatch encodes many images in one forward pass.
func (a *Autoencoder) ProjectBatch(rows [][]float64) [][]float64 {
	return projectBatch(a.Enc, rows)
}

// ProjectMat encodes the rows of x in one forward pass.
func (a *Autoencoder) ProjectMat(x *tensor.Mat) [][]float64 { return projectMat(a.Enc, x) }

// Reconstruct encodes then decodes one image.
func (a *Autoencoder) Reconstruct(x []float64) []float64 {
	z := a.Enc.Predict(tensor.FromVec(x))
	out := a.Dec.Predict(z)
	return rowCopy(out, 0)
}

// ReconError returns the mean squared reconstruction error of one image,
// the drift signal of DRAE and Figure 5.
func (a *Autoencoder) ReconError(x []float64) float64 {
	r := a.Reconstruct(x)
	var s float64
	for i, v := range r {
		d := v - x[i]
		s += d * d
	}
	return s / float64(len(x))
}

// Decode maps a latent point back to image space.
func (a *Autoencoder) Decode(z []float64) []float64 {
	out := a.Dec.Predict(tensor.FromVec(z))
	return rowCopy(out, 0)
}

var _ Projector = (*Autoencoder)(nil)
