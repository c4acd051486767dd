// Package gan implements the generative models of the paper's §2.3 and
// §4.3–4.4: the standard autoencoder (AE), the adversarial autoencoder
// (AAE), a plain GAN, and the paper's contribution — the dual-adversarial
// GAN (DA-GAN) with its latent discriminator, image discriminator and the
// Algorithm 1 training procedure. The trained DA-GAN encoder is the
// distance-preserving projection used by the drift DETECTOR.
package gan

import (
	"fmt"

	"odin/internal/nn"
	"odin/internal/tensor"
)

// Projector maps a flattened image to its latent representation. The drift
// detector only depends on this interface, so AE / AAE / DA-GAN / PCA
// projections are interchangeable in experiments.
type Projector interface {
	Project(x []float64) []float64
	LatentDim() int
}

// BatchProjector is implemented by projectors that can encode many images
// in one network pass; callers with whole datasets in hand (detector
// calibration, cluster embedding) prefer it when available.
type BatchProjector interface {
	Projector
	ProjectBatch(rows [][]float64) [][]float64
}

// ProjectAll encodes every row, in one pass when proj supports batching.
func ProjectAll(proj Projector, rows [][]float64) [][]float64 {
	if bp, ok := proj.(BatchProjector); ok {
		return bp.ProjectBatch(rows)
	}
	out := make([][]float64, len(rows))
	for i, x := range rows {
		out[i] = proj.Project(x)
	}
	return out
}

// projBatch bounds the encoder batch so one-shot dataset projections do
// not park dataset-sized buffers in the workspace pool (which never
// shrinks) — the pooled working set stays at a few hundred rows.
const projBatch = 256

// projectBatch runs the shared encoder-batch path behind the ProjectBatch
// methods: stack a chunk, one forward pass, unstack, recycle.
func projectBatch(enc *nn.Network, rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	zs := make([][]float64, len(rows))
	for start := 0; start < len(rows); start += projBatch {
		end := start + projBatch
		if end > len(rows) {
			end = len(rows)
		}
		x := ToBatch(rows[start:end])
		out := enc.Predict(x)
		for i := 0; i < out.R; i++ {
			zs[start+i] = rowCopy(out, i)
		}
		nn.Recycle(x, out)
	}
	return zs
}

// rowCopy returns row i of out as a fresh slice: out is usually a pooled
// matrix about to be recycled.
func rowCopy(out *tensor.Mat, i int) []float64 {
	z := make([]float64, out.C)
	copy(z, out.Row(i))
	return z
}

// Config describes the shared architecture of the generative models.
type Config struct {
	InputDim int   // flattened image dimensionality
	Latent   int   // latent space dimensionality
	Hidden   []int // encoder hidden layer widths (decoder mirrors them)
	LR       float64
	Seed     uint64
}

func (c Config) validate() error {
	if c.InputDim <= 0 || c.Latent <= 0 {
		return fmt.Errorf("gan: invalid config: input=%d latent=%d", c.InputDim, c.Latent)
	}
	if c.LR <= 0 {
		return fmt.Errorf("gan: invalid learning rate %v", c.LR)
	}
	return nil
}

// buildEncoder constructs InputDim → Hidden… → Latent with ReLU between
// layers and a linear latent output.
func buildEncoder(cfg Config, rng *tensor.RNG) *nn.Network {
	var layers []nn.Layer
	in := cfg.InputDim
	for _, h := range cfg.Hidden {
		layers = append(layers, nn.NewDense(in, h, rng), nn.NewReLU())
		in = h
	}
	layers = append(layers, nn.NewDense(in, cfg.Latent, rng))
	return nn.NewNetwork("encoder", layers...)
}

// buildDecoder mirrors the encoder: Latent → reversed Hidden… → InputDim
// with a sigmoid output so reconstructions live in [0,1].
func buildDecoder(cfg Config, rng *tensor.RNG) *nn.Network {
	var layers []nn.Layer
	in := cfg.Latent
	for i := len(cfg.Hidden) - 1; i >= 0; i-- {
		layers = append(layers, nn.NewDense(in, cfg.Hidden[i], rng), nn.NewReLU())
		in = cfg.Hidden[i]
	}
	layers = append(layers, nn.NewDense(in, cfg.InputDim, rng), nn.NewSigmoid())
	return nn.NewNetwork("decoder", layers...)
}

// buildDiscriminator constructs dim → h1 → h2 → 1 with LeakyReLU and a
// sigmoid output, the standard GAN discriminator shape. Width is capped so
// a high-dimensional image discriminator cannot dwarf (and destabilise)
// the generator it trains against.
func buildDiscriminator(name string, dim int, rng *tensor.RNG) *nn.Network {
	h1 := dim / 2
	if h1 < 16 {
		h1 = 16
	}
	if h1 > 256 {
		h1 = 256
	}
	h2 := h1 / 4
	if h2 < 8 {
		h2 = 8
	}
	return nn.NewNetwork(name,
		nn.NewDense(dim, h1, rng),
		nn.NewLeakyReLU(0.2),
		nn.NewDense(h1, h2, rng),
		nn.NewLeakyReLU(0.2),
		nn.NewDense(h2, 1, rng),
		nn.NewSigmoid(),
	)
}

// ToBatch stacks flattened images into a batch matrix drawn from the shared
// nn workspace pool.
func ToBatch(rows [][]float64) *tensor.Mat {
	if len(rows) == 0 {
		return tensor.New(0, 0)
	}
	m := nn.GetMatRaw(len(rows), len(rows[0]))
	for i, r := range rows {
		m.SetRow(i, r)
	}
	return m
}

// miniBatches yields index slices of size batch covering a shuffled range.
func miniBatches(n, batch int, rng *tensor.RNG) [][]int {
	perm := rng.Perm(n)
	var out [][]int
	for i := 0; i < n; i += batch {
		j := i + batch
		if j > n {
			j = n
		}
		out = append(out, perm[i:j])
	}
	return out
}

// gather stacks the indexed rows into a workspace batch; training loops
// recycle it once the step is done.
func gather(data [][]float64, idx []int) *tensor.Mat {
	m := nn.GetMatRaw(len(idx), len(data[0]))
	for i, id := range idx {
		m.SetRow(i, data[id])
	}
	return m
}
