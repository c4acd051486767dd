package gan

import (
	"math"

	"odin/internal/tensor"
)

// Decoder is any model that can map a latent point back to image space;
// AE, AAE and DA-GAN all satisfy it.
type Decoder interface {
	Decode(z []float64) []float64
}

// Reconstructor is any model that can auto-encode an image.
type Reconstructor interface {
	Reconstruct(x []float64) []float64
}

// CycleError quantifies latent-space holes (Figure 2): sample z ~ N(0,1),
// decode, re-encode, and measure ‖E(G(z)) − z‖ / √latent. A smooth,
// hole-free latent space (AAE, DA-GAN) re-encodes decoded points close to
// where they came from; a holey AE latent space does not, because the
// decoder produces invalid images inside the holes.
func CycleError(p Projector, d Decoder, nSamples int, seed uint64) float64 {
	rng := tensor.NewRNG(seed)
	dim := p.LatentDim()
	var total float64
	for i := 0; i < nSamples; i++ {
		z := rng.NormVec(dim)
		z2 := p.Project(d.Decode(z))
		total += tensor.L2(z, z2) / math.Sqrt(float64(dim))
	}
	return total / float64(nSamples)
}

// MeanReconError is the mean squared reconstruction error over a dataset —
// the blurriness proxy of Figure 2 (higher = more information lost).
func MeanReconError(r Reconstructor, data [][]float64) float64 {
	if len(data) == 0 {
		return 0
	}
	var total float64
	for _, x := range data {
		rec := r.Reconstruct(x)
		var s float64
		for i, v := range rec {
			d := v - x[i]
			s += d * d
		}
		total += s / float64(len(x))
	}
	return total / float64(len(data))
}
