package gan

import (
	"odin/internal/nn"
	"odin/internal/tensor"
)

// GAN is the plain generative adversarial network of §2.3: generator G(z)
// and image discriminator DI(x). It synthesises images but does not learn
// an encoder, which is why (as the paper notes) it cannot serve as a drift
// projection on its own — it exists as a building block and comparison
// point for DA-GAN.
type GAN struct {
	Cfg Config
	Gen *nn.Network // decoder-shaped generator
	DI  *nn.Network

	optG nn.Optimizer
	optD nn.Optimizer
	rng  *tensor.RNG
}

// NewGAN builds a plain GAN from the config.
func NewGAN(cfg Config) *GAN {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(cfg.Seed)
	return &GAN{
		Cfg:  cfg,
		Gen:  buildDecoder(cfg, rng),
		DI:   buildDiscriminator("image-disc", cfg.InputDim, rng),
		optG: nn.NewAdam(cfg.LR),
		optD: nn.NewAdam(cfg.LR),
		rng:  rng,
	}
}

// TrainEpoch runs one epoch of alternating discriminator / generator
// updates and returns the mean discriminator loss.
func (g *GAN) TrainEpoch(data [][]float64, batch int) float64 {
	var total float64
	batches := miniBatches(len(data), batch, g.rng)
	for _, idx := range batches {
		x := gather(data, idx)

		// Discriminator: real x vs generated G(z').
		zp := nn.GetMatRaw(x.R, g.Cfg.Latent)
		g.rng.FillNormal(zp, 1)
		xFake := g.Gen.Predict(zp)
		g.DI.ZeroGrad()
		pReal := g.DI.Forward(x, true)
		lr, gReal := nn.BCEScalarTarget(pReal, 1)
		dReal := g.DI.Backward(gReal)
		pFake := g.DI.Forward(xFake, true)
		lf, gFake := nn.BCEScalarTarget(pFake, 0)
		dFake := g.DI.Backward(gFake)
		g.optD.Step(g.DI.Params())
		total += lr + lf
		nn.Recycle(zp, xFake, pReal, gReal, dReal, pFake, gFake, dFake)

		// Generator: fool the discriminator.
		zp2 := nn.GetMatRaw(x.R, g.Cfg.Latent)
		g.rng.FillNormal(zp2, 1)
		xg := g.Gen.Forward(zp2, true)
		p := g.DI.Forward(xg, true)
		_, gg := nn.BCEScalarTarget(p, 1)
		g.Gen.ZeroGrad()
		g.DI.ZeroGrad()
		gx := g.DI.Backward(gg)
		dz := g.Gen.Backward(gx)
		g.optG.Step(g.Gen.Params())
		nn.Recycle(x, zp2, xg, p, gg, gx, dz)
	}
	return total / float64(len(batches))
}

// Generate synthesises one image from a latent sample.
func (g *GAN) Generate(z []float64) []float64 {
	out := g.Gen.Predict(tensor.FromVec(z))
	return rowCopy(out, 0)
}

// Discriminate returns DI's real-image probability for one image.
func (g *GAN) Discriminate(x []float64) float64 {
	return g.DI.Predict(tensor.FromVec(x)).At(0, 0)
}
