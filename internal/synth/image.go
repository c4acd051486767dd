// Package synth procedurally generates the three datasets used by the
// paper's evaluation: an MNIST-like digit set, a CIFAR-like textured-class
// set, and a BDD100K-like dash-cam scene stream with ground-truth object
// boxes and environment domains (time-of-day × weather × location). See
// DESIGN.md §1 for why these substitutions preserve the paper's behaviour.
package synth

import (
	"fmt"
	"math"
)

// Image is a channel-major C×H×W image with float64 pixels in [0, 1].
type Image struct {
	C, H, W int
	Pix     []float64
}

// NewImage returns an all-black image.
func NewImage(c, h, w int) *Image {
	return &Image{C: c, H: h, W: w, Pix: make([]float64, c*h*w)}
}

// At returns the pixel value of channel ch at (x, y). Out-of-bounds reads
// return 0.
func (im *Image) At(ch, y, x int) float64 {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return 0
	}
	return im.Pix[ch*im.H*im.W+y*im.W+x]
}

// Set assigns the pixel value of channel ch at (x, y), clamping to [0, 1].
// Out-of-bounds writes are ignored.
func (im *Image) Set(ch, y, x int, v float64) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[ch*im.H*im.W+y*im.W+x] = clamp01(v)
}

// SetRGB writes an RGB triple at (x, y). For grayscale images only channel
// 0 is written.
func (im *Image) SetRGB(y, x int, r, g, b float64) {
	if im.C == 1 {
		im.Set(0, y, x, (r+g+b)/3)
		return
	}
	im.Set(0, y, x, r)
	im.Set(1, y, x, g)
	im.Set(2, y, x, b)
}

// FillRect paints an axis-aligned rectangle [x0,x1)×[y0,y1) with an RGB
// colour.
func (im *Image) FillRect(y0, x0, y1, x1 int, r, g, b float64) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			im.SetRGB(y, x, r, g, b)
		}
	}
}

// Fill paints the entire image with an RGB colour.
func (im *Image) Fill(r, g, b float64) { im.FillRect(0, 0, im.H, im.W, r, g, b) }

// Flat returns the raw pixel slice (aliased, channel-major), the row format
// expected by the nn package.
func (im *Image) Flat() []float64 { return im.Pix }

// Dim returns the flattened dimensionality C*H*W.
func (im *Image) Dim() int { return im.C * im.H * im.W }

// Scale multiplies every pixel by f, clamping to [0,1]. f<1 darkens (night),
// f>1 brightens.
func (im *Image) Scale(f float64) {
	for i, v := range im.Pix {
		im.Pix[i] = clamp01(v * f)
	}
}

// BlendToward moves every pixel a fraction t of the way toward the grey
// level g — the fog / overcast operator.
func (im *Image) BlendToward(g, t float64) {
	for i, v := range im.Pix {
		im.Pix[i] = clamp01(v + (g-v)*t)
	}
}

// Desaturate pulls colour channels toward their luminance by fraction t.
func (im *Image) Desaturate(t float64) {
	if im.C != 3 {
		return
	}
	hw := im.H * im.W
	for p := 0; p < hw; p++ {
		r, g, b := im.Pix[p], im.Pix[hw+p], im.Pix[2*hw+p]
		l := 0.299*r + 0.587*g + 0.114*b
		im.Pix[p] = clamp01(r + (l-r)*t)
		im.Pix[hw+p] = clamp01(g + (l-g)*t)
		im.Pix[2*hw+p] = clamp01(b + (l-b)*t)
	}
}

// String describes the image shape.
func (im *Image) String() string { return fmt.Sprintf("Image(%dx%dx%d)", im.C, im.H, im.W) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Downsample averages blocks to produce an image 1/factor the size in each
// spatial dimension; used to feed the DA-GAN a lower-resolution manifold.
func (im *Image) Downsample(factor int) *Image {
	out := NewImage(im.C, im.H/factor, im.W/factor)
	im.DownsampleInto(out.Pix, factor)
	return out
}

// DownsampleInto writes the pixels of Downsample(factor), channel-major,
// into dst — a row of the projector's input batch, say — which must hold
// exactly C·(H/factor)·(W/factor) values. A block is summed row by row, left
// to right, from zero.
func (im *Image) DownsampleInto(dst []float64, factor int) {
	oh := im.H / factor
	ow := im.W / factor
	if len(dst) != im.C*oh*ow {
		// Invariant: the one caller, Downsample, sizes dst from im itself.
		panic(fmt.Sprintf("synth: downsample of %v by %d into %d values, want %d", im, factor, len(dst), im.C*oh*ow))
	}
	inv := 1 / float64(factor*factor)
	for c := 0; c < im.C; c++ {
		plane := im.Pix[c*im.H*im.W : (c+1)*im.H*im.W]
		for y := 0; y < oh; y++ {
			orow := dst[(c*oh+y)*ow : (c*oh+y+1)*ow]
			// band is the factor source rows under this output row.
			band := plane[y*factor*im.W : (y+1)*factor*im.W]
			if factor == 2 {
				// Every served frame is halved (core.DownsampleEncoder(2)):
				// the same sum, unrolled.
				r0, r1 := band[:2*ow], band[im.W:im.W+2*ow]
				for x := range orow {
					var s float64
					s += r0[2*x]
					s += r0[2*x+1]
					s += r1[2*x]
					s += r1[2*x+1]
					orow[x] = clamp01(s * inv)
				}
				continue
			}
			for x := range orow {
				var s float64
				for dy := 0; dy < factor; dy++ {
					for _, v := range band[dy*im.W+x*factor:][:factor] {
						s += v
					}
				}
				orow[x] = clamp01(s * inv)
			}
		}
	}
}

// DrawDisc paints a filled circle of radius rad centred at (cx, cy).
func (im *Image) DrawDisc(cy, cx int, rad float64, r, g, b float64) {
	ir := int(math.Ceil(rad))
	for y := cy - ir; y <= cy+ir; y++ {
		for x := cx - ir; x <= cx+ir; x++ {
			dy := float64(y - cy)
			dx := float64(x - cx)
			if dy*dy+dx*dx <= rad*rad {
				im.SetRGB(y, x, r, g, b)
			}
		}
	}
}
