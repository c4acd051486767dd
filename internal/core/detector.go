// Package core implements the ODIN system of §3: the drift DETECTOR
// (DA-GAN latent projection + ∆-band clustering), the SPECIALIZER
// (per-cluster model generation, lite-then-specialized life cycle), the
// SELECTOR (KNN-U / KNN-W / ∆-BM ensemble policies) and the MODELMANAGER
// binding them into the end-to-end pipeline.
package core

import (
	"fmt"

	"odin/internal/cluster"
	"odin/internal/gan"
	"odin/internal/synth"
)

// FrameEncoder converts a frame image to the flattened vector the projector
// was trained on: the frame halved on each side (DownsampleEncoder).
type FrameEncoder func(*synth.Image) []float64

// DownsampleEncoder returns the encoder the projector is trained on: a frame
// halved on each side into a fresh row (synth.Image.DownsampleInto). factor
// must be 2, the one reduction there is; it stays a parameter because the
// benchmark harness, a module of its own, names it.
func DownsampleEncoder(factor int) FrameEncoder {
	if factor != 2 {
		panic(fmt.Sprintf("core: downsample factor %d, the projector's input is the frame halved", factor))
	}
	return encode
}

// encode is the frame encoder: im halved on each side into a fresh row.
func encode(im *synth.Image) []float64 {
	x := make([]float64, im.DownsampledLen())
	im.DownsampleInto(x)
	return x
}

// EncodedDim returns the projector's input width for a scene config: three
// channels, each halved on both sides.
func EncodedDim(cfg synth.SceneConfig) int {
	return 3 * (cfg.H / 2) * (cfg.W / 2)
}

// Detector is ODIN's drift DETECTOR (§4): it projects frames into the
// DA-GAN latent space and routes the projections through the online
// ∆-band cluster set. A frame reaches the projector halved on each side
// (DownsampleEncoder).
type Detector struct {
	Proj     gan.Projector
	Clusters *cluster.Set
}

// NewDetector assembles a drift detector from a trained projector.
func NewDetector(proj gan.Projector, cfg cluster.Config) *Detector {
	return &Detector{Proj: proj, Clusters: cluster.NewSet(cfg)}
}

// Project returns a frame's latent without updating cluster state (used by
// selection-only paths).
func (d *Detector) Project(img *synth.Image) []float64 {
	return d.Proj.Project(encode(img))
}

// DAGANConfig is the one projector architecture ODIN builds: a DA-GAN with
// latent 16 and hidden widths 128 and 48 over the frame halved on each side,
// the encoding TrainDAGAN trains it on. Restore refuses a checkpoint whose
// projector differs from it, seeds aside.
func DAGANConfig(scene synth.SceneConfig, seed uint64) gan.Config {
	return gan.Config{InputDim: EncodedDim(scene), Latent: 16, Hidden: []int{128, 48}, LR: 0.001, Seed: seed}
}

// TrainDAGAN is a convenience that trains a DA-GAN on held-out frames (the
// paper's ~20K unlabeled bootstrap images, §6.2), each encoded as the
// projector will see it, and returns it.
func TrainDAGAN(frames []*synth.Frame, cfg gan.Config, epochs, batch int) *gan.DAGAN {
	rows := make([][]float64, len(frames))
	for i, f := range frames {
		rows[i] = encode(f.Image)
	}
	dg := gan.NewDAGAN(cfg)
	dg.Fit(rows, epochs, batch)
	return dg
}
