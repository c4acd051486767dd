package outlier

import (
	"math"

	"odin/internal/tensor"
)

// PCA is the canonical linear dimensionality-reduction baseline of Table 1:
// it fits the top-k principal components of the training data by power
// iteration with deflation and scores queries by reconstruction error. PCA
// ignores the spatial structure of images, which is why the paper shows it
// degrading fastest as the outlier fraction grows.
type PCA struct {
	K     int
	Iters int

	mean       []float64
	components [][]float64 // K orthonormal direction vectors
}

// NewPCA returns a PCA detector keeping k components.
func NewPCA(k int) *PCA {
	if k <= 0 {
		k = 8
	}
	return &PCA{K: k, Iters: 50}
}

// Fit computes the mean and top-K principal directions of train.
func (p *PCA) Fit(train [][]float64) {
	n := len(train)
	if n == 0 {
		return
	}
	dim := len(train[0])
	p.mean = tensor.Centroid(train)

	// Centered copies.
	centered := make([][]float64, n)
	for i, x := range train {
		c := make([]float64, dim)
		for j, v := range x {
			c[j] = v - p.mean[j]
		}
		centered[i] = c
	}

	rng := tensor.NewRNG(12345)
	p.components = nil
	k := p.K
	if k > dim {
		k = dim
	}
	for comp := 0; comp < k; comp++ {
		v := rng.NormVec(dim)
		normalize(v)
		for it := 0; it < p.Iters; it++ {
			// w = Cv computed implicitly as Σ (xᵀv) x / n.
			w := make([]float64, dim)
			for _, x := range centered {
				a := tensor.Dot(x, v)
				tensor.AXPY(a, x, w)
			}
			// Deflate against found components.
			for _, c := range p.components {
				a := tensor.Dot(w, c)
				tensor.AXPY(-a, c, w)
			}
			if norm(w) < 1e-12 {
				break
			}
			normalize(w)
			v = w
		}
		p.components = append(p.components, v)
	}
}

// Score returns the squared reconstruction error after projecting onto the
// fitted components, normalised by dimensionality.
func (p *PCA) Score(x []float64) float64 {
	if p.mean == nil {
		return 0
	}
	dim := len(x)
	c := make([]float64, dim)
	for j, v := range x {
		c[j] = v - p.mean[j]
	}
	recon := make([]float64, dim)
	for _, comp := range p.components {
		a := tensor.Dot(c, comp)
		tensor.AXPY(a, comp, recon)
	}
	var s float64
	for j := range c {
		d := c[j] - recon[j]
		s += d * d
	}
	return s / float64(dim)
}

// Project maps x to its K-dimensional principal-component coordinates.
func (p *PCA) Project(x []float64) []float64 {
	c := make([]float64, len(x))
	for j, v := range x {
		c[j] = v - p.mean[j]
	}
	out := make([]float64, len(p.components))
	for i, comp := range p.components {
		out[i] = tensor.Dot(c, comp)
	}
	return out
}

// LatentDim returns the number of components.
func (p *PCA) LatentDim() int { return len(p.components) }

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

var _ Detector = (*PCA)(nil)
