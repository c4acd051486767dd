package synth

import (
	"math"

	"odin/internal/tensor"
)

// CIFARSize is the side length of generated texture-class images, matching
// CIFAR-10.
const CIFARSize = 32

// CIFARClasses is the number of texture classes.
const CIFARClasses = 10

// TextureGen procedurally renders CIFAR-like 32×32 RGB images from ten
// parametric texture families. Each family has a characteristic structure
// (stripes, checks, rings, blobs, …) and hue range, with per-sample jitter,
// so class-conditional appearance statistics differ the way natural image
// classes do.
type TextureGen struct {
	rng *tensor.RNG
	// Noise is the standard deviation of additive pixel noise.
	Noise float64
}

// NewTextureGen returns a texture generator with the given seed.
func NewTextureGen(seed uint64) *TextureGen {
	return &TextureGen{rng: tensor.NewRNG(seed), Noise: 0.04}
}

// classPalette returns a class-characteristic base colour with jitter.
func (g *TextureGen) classPalette(class int) (r, gg, b float64) {
	base := [CIFARClasses][3]float64{
		{0.35, 0.55, 0.85}, // 0: sky blues
		{0.75, 0.25, 0.25}, // 1: reds
		{0.30, 0.65, 0.35}, // 2: greens
		{0.80, 0.65, 0.25}, // 3: ochres
		{0.55, 0.35, 0.70}, // 4: violets
		{0.85, 0.50, 0.20}, // 5: oranges
		{0.25, 0.60, 0.65}, // 6: teals
		{0.60, 0.60, 0.60}, // 7: greys
		{0.80, 0.35, 0.55}, // 8: pinks
		{0.40, 0.45, 0.25}, // 9: olives
	}[class]
	j := func(v float64) float64 { return clamp01(v + g.rng.Range(-0.08, 0.08)) }
	return j(base[0]), j(base[1]), j(base[2])
}

// Generate renders one image of the given texture class (0–9).
func (g *TextureGen) Generate(class int) *Image {
	if class < 0 || class >= CIFARClasses {
		// Invariant: classes come from the experiments' fixed lists, never from input.
		panic("synth: texture class out of range")
	}
	im := NewImage(3, CIFARSize, CIFARSize)
	r, gg, b := g.classPalette(class)
	r2, g2, b2 := clamp01(r*0.4), clamp01(gg*0.4), clamp01(b*0.4)
	rng := g.rng

	switch class {
	case 0: // horizontal stripes
		period := 3 + rng.Intn(4)
		phase := rng.Intn(period)
		for y := 0; y < CIFARSize; y++ {
			if (y+phase)/period%2 == 0 {
				im.FillRect(y, 0, y+1, CIFARSize, r, gg, b)
			} else {
				im.FillRect(y, 0, y+1, CIFARSize, r2, g2, b2)
			}
		}
	case 1: // vertical stripes
		period := 3 + rng.Intn(4)
		phase := rng.Intn(period)
		for x := 0; x < CIFARSize; x++ {
			if (x+phase)/period%2 == 0 {
				im.FillRect(0, x, CIFARSize, x+1, r, gg, b)
			} else {
				im.FillRect(0, x, CIFARSize, x+1, r2, g2, b2)
			}
		}
	case 2: // diagonal stripes
		period := 4 + rng.Intn(4)
		phase := rng.Intn(period)
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				if (x+y+phase)/period%2 == 0 {
					im.SetRGB(y, x, r, gg, b)
				} else {
					im.SetRGB(y, x, r2, g2, b2)
				}
			}
		}
	case 3: // checkerboard
		cell := 3 + rng.Intn(4)
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				if (x/cell+y/cell)%2 == 0 {
					im.SetRGB(y, x, r, gg, b)
				} else {
					im.SetRGB(y, x, r2, g2, b2)
				}
			}
		}
	case 4: // concentric rings
		cy := 16 + rng.Range(-4, 4)
		cx := 16 + rng.Range(-4, 4)
		period := 3.0 + rng.Range(0, 3)
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				d := math.Hypot(float64(y)-cy, float64(x)-cx)
				if int(d/period)%2 == 0 {
					im.SetRGB(y, x, r, gg, b)
				} else {
					im.SetRGB(y, x, r2, g2, b2)
				}
			}
		}
	case 5: // random blobs
		im.Fill(r2, g2, b2)
		for i := 0; i < 6+rng.Intn(5); i++ {
			im.DrawDisc(rng.Intn(CIFARSize), rng.Intn(CIFARSize), 2+rng.Range(0, 4), r, gg, b)
		}
	case 6: // linear gradient
		angle := rng.Range(0, 2*math.Pi)
		dy, dx := math.Sin(angle), math.Cos(angle)
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				t := clamp01(0.5 + (dy*(float64(y)-16)+dx*(float64(x)-16))/32)
				im.SetRGB(y, x, r2+(r-r2)*t, g2+(gg-g2)*t, b2+(b-b2)*t)
			}
		}
	case 7: // coarse random blocks
		cell := 4 + rng.Intn(4)
		for by := 0; by < CIFARSize; by += cell {
			for bx := 0; bx < CIFARSize; bx += cell {
				t := rng.Float64()
				im.FillRect(by, bx, by+cell, bx+cell, r2+(r-r2)*t, g2+(gg-g2)*t, b2+(b-b2)*t)
			}
		}
	case 8: // plus/cross shape on plain background
		im.Fill(r2, g2, b2)
		w := 3 + rng.Intn(4)
		c := 16 + rng.Intn(5) - 2
		im.FillRect(c-w/2, 4, c-w/2+w, CIFARSize-4, r, gg, b)
		im.FillRect(4, c-w/2, CIFARSize-4, c-w/2+w, r, gg, b)
	case 9: // diagonal half-plane (triangle)
		off := rng.Range(-8, 8)
		for y := 0; y < CIFARSize; y++ {
			for x := 0; x < CIFARSize; x++ {
				if float64(x)+off > float64(y) {
					im.SetRGB(y, x, r, gg, b)
				} else {
					im.SetRGB(y, x, r2, g2, b2)
				}
			}
		}
	}

	if g.Noise > 0 {
		for i := range im.Pix {
			im.Pix[i] = clamp01(im.Pix[i] + rng.Norm()*g.Noise)
		}
	}
	return im
}

// TextureDataset renders n images per listed class.
func TextureDataset(seed uint64, classes []int, nPerClass int) []LabeledImage {
	gen := NewTextureGen(seed)
	var out []LabeledImage
	for _, c := range classes {
		for i := 0; i < nPerClass; i++ {
			out = append(out, LabeledImage{Image: gen.Generate(c), Label: c})
		}
	}
	return out
}
