// Package gan implements the generative models of the paper's §2.3 and
// §4.3–4.4 as one encoder–decoder body with zero, one or two adversaries:
// the standard autoencoder (AE) trains it on reconstruction alone, the
// adversarial autoencoder (AAE) adds a latent discriminator, and the
// paper's contribution, the dual-adversarial GAN (DA-GAN), adds a latent
// and an image discriminator and trains all four networks in Algorithm 1's
// order. The trained DA-GAN encoder is the distance-preserving projection
// used by the drift DETECTOR.
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
// calibration, cluster embedding) prefer it when available, and the
// serving path hands it a batch it filled in place (ProjectMat).
type BatchProjector interface {
	Projector
	ProjectBatch(rows [][]float64) [][]float64
	// ProjectMat encodes the rows of x in one pass.
	ProjectMat(x *tensor.Mat) [][]float64
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

// ProjectMat encodes the rows of x, a batch the caller filled, in one pass
// when proj batches and row by row otherwise.
func ProjectMat(proj Projector, x *tensor.Mat) [][]float64 {
	if bp, ok := proj.(BatchProjector); ok {
		return bp.ProjectMat(x)
	}
	out := make([][]float64, x.R)
	for i := range out {
		out[i] = proj.Project(x.Row(i))
	}
	return out
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
	h1 := min(max(dim/2, 16), 256)
	h2 := max(h1/4, 8)
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
		out = append(out, perm[i:min(i+batch, n)])
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
