package outlier

import (
	"math"
	"sort"

	"odin/internal/gan"
	"odin/internal/tensor"
)

// LatentKNN scores queries by their mean distance to the k nearest training
// points in a learned latent space. Wrapping different projectors yields the
// Table 1 columns: AE latent, AAE latent, and DA-GAN (DG) latent — the last
// being the paper's proposed distance metric. Distances in the compact
// latent manifold dodge the curse of dimensionality that defeats raw-pixel
// metrics (§4.2).
type LatentKNN struct {
	K int
	// Train is called by Fit to construct and train the projector.
	Train func(data [][]float64) gan.Projector

	proj    gan.Projector
	latents [][]float64
}

// NewLatentKNN builds a latent-space k-NN detector over the projector
// produced by train.
func NewLatentKNN(k int, train func(data [][]float64) gan.Projector) *LatentKNN {
	if k <= 0 {
		k = 5
	}
	return &LatentKNN{K: k, Train: train}
}

// Fit trains the projector and caches the training latents, batching the
// projection when the projector supports it.
func (l *LatentKNN) Fit(train [][]float64) {
	l.proj = l.Train(train)
	l.latents = gan.ProjectAll(l.proj, train)
}

// Score returns the mean latent distance to the k nearest training points.
func (l *LatentKNN) Score(x []float64) float64 {
	z := l.proj.Project(x)
	ds := make([]float64, len(l.latents))
	for i, t := range l.latents {
		ds[i] = tensor.L2(z, t)
	}
	sort.Float64s(ds)
	k := l.K
	if k > len(ds) {
		k = len(ds)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += ds[i]
	}
	if k == 0 {
		return 0
	}
	return s / float64(k)
}

var _ Detector = (*LatentKNN)(nil)

// NewAEDetector returns the "AE" Table 1 detector: k-NN in a plain
// autoencoder's latent space.
func NewAEDetector(cfg gan.Config, epochs, batch, k int) *LatentKNN {
	return NewLatentKNN(k, func(data [][]float64) gan.Projector {
		ae := gan.NewAutoencoder(cfg)
		ae.Fit(data, epochs, batch)
		return ae
	})
}

// NewAAEDetector returns the "AAE" Table 1 detector: k-NN in an adversarial
// autoencoder's latent space.
func NewAAEDetector(cfg gan.Config, epochs, batch, k int) *LatentKNN {
	return NewLatentKNN(k, func(data [][]float64) gan.Projector {
		aae := gan.NewAAE(cfg)
		aae.Fit(data, epochs, batch)
		return aae
	})
}

// DAGANDetector is the "DG" Table 1 detector — the paper's proposed
// metric. It combines the three drift signals the DA-GAN provides (§4.3):
// latent-space k-NN distance (a LatentKNN over the DA-GAN), the latent
// discriminator's realism judgement (outliers encode away from the smooth
// prior), and reconstruction error. Each component is standardised against
// its training distribution and the standardised scores are summed.
type DAGANDetector struct {
	Cfg    gan.Config
	Epochs int
	Batch  int
	K      int

	dg    *gan.DAGAN
	knn   *LatentKNN
	stats [3][2]float64 // per-component (mean, std) on training data
}

// NewDAGANDetector builds the composite DA-GAN detector.
func NewDAGANDetector(cfg gan.Config, epochs, batch, k int) *DAGANDetector {
	if k <= 0 {
		k = 5
	}
	return &DAGANDetector{Cfg: cfg, Epochs: epochs, Batch: batch, K: k}
}

// Fit trains the DA-GAN and calibrates the component statistics.
func (d *DAGANDetector) Fit(train [][]float64) {
	d.knn = &LatentKNN{K: d.K, Train: func(data [][]float64) gan.Projector {
		d.dg = gan.NewDAGAN(d.Cfg)
		d.dg.Fit(data, d.Epochs, d.Batch)
		return d.dg
	}}
	d.knn.Fit(train)
	comps := make([][]float64, 3)
	for _, x := range train {
		c := d.components(x)
		for j := 0; j < 3; j++ {
			comps[j] = append(comps[j], c[j])
		}
	}
	for j := 0; j < 3; j++ {
		d.stats[j][0] = tensor.Mean(comps[j])
		d.stats[j][1] = stddev(comps[j])
	}
}

// components returns the raw drift signals for x.
func (d *DAGANDetector) components(x []float64) [3]float64 {
	return [3]float64{d.knn.Score(x), 1 - d.dg.LatentRealism(x), d.dg.ReconError(x)}
}

// Score returns the summed standardised drift signals.
func (d *DAGANDetector) Score(x []float64) float64 {
	c := d.components(x)
	var s float64
	for j := 0; j < 3; j++ {
		sd := d.stats[j][1]
		if sd < 1e-9 {
			sd = 1e-9
		}
		s += (c[j] - d.stats[j][0]) / sd
	}
	return s
}

func stddev(v []float64) float64 {
	return math.Sqrt(tensor.Variance(v))
}

var _ Detector = (*DAGANDetector)(nil)
