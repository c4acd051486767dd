package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// clipNorm bounds the gradient norm of every clipped training step.
const clipNorm = 5

// codec is the encoder–decoder body the Autoencoder, AAE and DAGAN embed:
// the config, the encoder E, the decoder G and the seeded RNG that drew
// their weights and then draws minibatch orders and prior samples. The
// models differ only in the adversaries they train against and the order
// of their training steps.
type codec struct {
	Cfg Config
	Enc *nn.Network
	Dec *nn.Network

	rng *tensor.RNG
}

// newCodec validates cfg, then draws the encoder's and the decoder's
// weights, in that order, from one RNG seeded with cfg.Seed. A model draws
// its discriminators from the same RNG after them, so every model built
// from one Config starts from the same encoder and decoder.
func newCodec(cfg Config) codec {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(cfg.Seed)
	return codec{Cfg: cfg, Enc: buildEncoder(cfg, rng), Dec: buildDecoder(cfg, rng), rng: rng}
}

// Project encodes one image into the latent space. After training, the
// DA-GAN's encoder is the only component the DETECTOR uses (§4.5).
func (c *codec) Project(x []float64) []float64 {
	return rowCopy(c.Enc.Predict(tensor.FromVec(x)), 0)
}

// LatentDim returns the latent dimensionality.
func (c *codec) LatentDim() int { return c.Cfg.Latent }

// projBatch bounds the encoder batch so one-shot dataset projections do
// not park dataset-sized buffers in the workspace pool, which keeps every
// buffer it has handed out: the pooled working set stays at a few hundred
// rows.
const projBatch = 256

// ProjectBatch encodes many images, a chunk of at most projBatch rows per
// forward pass.
func (c *codec) ProjectBatch(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	zs := make([][]float64, 0, len(rows))
	for start := 0; start < len(rows); start += projBatch {
		x := ToBatch(rows[start:min(start+projBatch, len(rows))])
		zs = append(zs, c.ProjectMat(x)...)
		nn.Recycle(x)
	}
	return zs
}

// ProjectMat encodes the rows of x in one forward pass, its output copied
// into one slab and cut into latents, each capped at its own end.
func (c *codec) ProjectMat(x *tensor.Mat) [][]float64 {
	out := c.Enc.Predict(x)
	slab := append([]float64(nil), out.V[:out.R*out.C]...)
	zs := make([][]float64, out.R)
	for i := range zs {
		zs[i] = slab[i*out.C : (i+1)*out.C : (i+1)*out.C]
	}
	nn.Recycle(out)
	return zs
}

// Reconstruct encodes then decodes one image.
func (c *codec) Reconstruct(x []float64) []float64 {
	return rowCopy(c.Dec.Predict(c.Enc.Predict(tensor.FromVec(x))), 0)
}

// ReconError returns the mean squared reconstruction error of one image,
// the drift signal of DRAE and Figure 5.
func (c *codec) ReconError(x []float64) float64 { return sqErr(c.Reconstruct(x), x) }

// Decode maps a latent point back to image space.
func (c *codec) Decode(z []float64) []float64 {
	return rowCopy(c.Dec.Predict(tensor.FromVec(z)), 0)
}

// rowCopy returns row i of out as a fresh slice: out is usually a pooled
// matrix about to be recycled.
func rowCopy(out *tensor.Mat, i int) []float64 {
	z := make([]float64, out.C)
	copy(z, out.Row(i))
	return z
}

// epoch runs step on each minibatch of one shuffled pass over data and
// returns the number of minibatches.
func (c *codec) epoch(data [][]float64, batch int, step func(x *tensor.Mat)) float64 {
	batches := miniBatches(len(data), batch, c.rng)
	for _, idx := range batches {
		x := gather(data, idx)
		step(x)
		nn.Recycle(x)
	}
	return float64(len(batches))
}

// reconStep updates E and G together on x's reconstruction loss, its
// gradient scaled by lambda and, when clip is set, clipped (the AE's one
// step, the AAE's first, DA-GAN's line 13). It returns the loss.
func (c *codec) reconStep(x *tensor.Mat, opt *nn.Adam, lambda float64, clip bool) float64 {
	z := c.Enc.Forward(x, true)
	xr := c.Dec.Forward(z, true)
	loss, grad := nn.BCE(xr, x)
	grad.Scale(lambda)
	c.Enc.ZeroGrad()
	c.Dec.ZeroGrad()
	gz := c.Dec.Backward(grad)
	dIn := c.Enc.Backward(gz)
	params := append(c.Enc.Params(), c.Dec.Params()...)
	if clip {
		nn.ClipGrads(params, clipNorm)
	}
	opt.Step(params)
	// Everything this step produced is dead now; hand it back so the next
	// minibatch allocates nothing.
	nn.Recycle(z, xr, grad, gz, dIn)
	return loss
}

// discStep updates discriminator d to tell real (target 1) from fake
// (target 0) — the AAE's DZ, DA-GAN's DI (lines 5–7) and DZ (lines 9–11) —
// and returns its loss.
func discStep(d *nn.Network, opt *nn.Adam, real, fake *tensor.Mat) float64 {
	d.ZeroGrad()
	pReal := d.Forward(real, true)
	lReal, gReal := nn.BCEScalarTarget(pReal, 1)
	dReal := d.Backward(gReal)
	pFake := d.Forward(fake, true)
	lFake, gFake := nn.BCEScalarTarget(pFake, 0)
	dFake := d.Backward(gFake)
	nn.ClipGrads(d.Params(), clipNorm)
	opt.Step(d.Params())
	nn.Recycle(pReal, gReal, dReal, pFake, gFake, dFake)
	return lReal + lFake
}

// foolStep updates gen so that d judges gen(in) real — the AAE's encoder
// and DA-GAN's encoder (line 12) against DZ, DA-GAN's decoder (line 8)
// against DI. d's gradients are computed and left unused.
func foolStep(gen, d *nn.Network, opt *nn.Adam, in *tensor.Mat) {
	out := gen.Forward(in, true)
	p := d.Forward(out, true)
	_, g := nn.BCEScalarTarget(p, 1)
	gen.ZeroGrad()
	d.ZeroGrad()
	gOut := d.Backward(g)
	gIn := gen.Backward(gOut)
	nn.ClipGrads(gen.Params(), clipNorm)
	opt.Step(gen.Params())
	nn.Recycle(out, p, g, gOut, gIn)
}
