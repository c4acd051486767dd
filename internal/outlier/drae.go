package outlier

import (
	"odin/internal/gan"
)

// DRAE is the discriminative reconstruction autoencoder baseline (Xia et
// al., ICCV 2015): an autoencoder whose reconstruction error is used as the
// outlier score. Table 1 thresholds it like every other detector, at the
// training scores' 99th percentile. The paper's critique — that
// reconstruction error on the raw output space inherits the AE's latent
// holes — is what Table 1 measures.
type DRAE struct {
	Cfg    gan.Config
	Epochs int
	Batch  int

	ae *gan.Autoencoder
}

// NewDRAE returns a DRAE detector with the given autoencoder architecture.
func NewDRAE(cfg gan.Config, epochs, batch int) *DRAE {
	return &DRAE{Cfg: cfg, Epochs: epochs, Batch: batch}
}

// Fit trains the underlying autoencoder.
func (d *DRAE) Fit(train [][]float64) {
	d.ae = gan.NewAutoencoder(d.Cfg)
	d.ae.Fit(train, d.Epochs, d.Batch)
}

// Score returns the reconstruction error of x.
func (d *DRAE) Score(x []float64) float64 {
	return d.ae.ReconError(x)
}

var _ Detector = (*DRAE)(nil)
