package synth

import "odin/internal/tensor"

// DigitSize is the side length of generated digit images, matching MNIST.
const DigitSize = 28

// sevenSegments maps each digit 0–9 to its lit segments in the classic
// seven-segment layout: a (top), b (top-right), c (bottom-right),
// d (bottom), e (bottom-left), f (top-left), g (middle).
var sevenSegments = [10][7]bool{
	{true, true, true, true, true, true, false},     // 0
	{false, true, true, false, false, false, false}, // 1
	{true, true, false, true, true, false, true},    // 2
	{true, true, true, true, false, false, true},    // 3
	{false, true, true, false, false, true, true},   // 4
	{true, false, true, true, false, true, true},    // 5
	{true, false, true, true, true, true, true},     // 6
	{true, true, true, false, false, false, false},  // 7
	{true, true, true, true, true, true, true},      // 8
	{true, true, true, true, false, true, true},     // 9
}

// DigitGen procedurally renders MNIST-like 28×28 grayscale digits with
// per-sample stroke jitter, translation, scale and pixel noise, so that
// images of the same digit share structure while varying in appearance.
type DigitGen struct {
	rng *tensor.RNG
	// Noise is the standard deviation of additive pixel noise.
	Noise float64
}

// NewDigitGen returns a digit generator with the given seed.
func NewDigitGen(seed uint64) *DigitGen {
	return &DigitGen{rng: tensor.NewRNG(seed), Noise: 0.05}
}

// classStyle gives each digit class a characteristic geometry (slant,
// stroke weight, aspect), the way real MNIST digit shapes differ beyond
// their topology. Without this, the seven-segment digits would be mutually
// interpolable (every digit is a segment-subset of 8), which would make
// class-level outlier detection ill-posed.
var classStyle = [10]struct {
	slant, thick, wScale, hScale float64
}{
	{0.00, 1.6, 1.15, 1.00}, // 0: wide, heavy loop
	{0.18, 1.1, 0.55, 1.05}, // 1: narrow, slanted
	{-0.10, 1.4, 1.00, 0.95},
	{0.06, 1.2, 0.95, 1.00},
	{0.22, 1.3, 1.05, 0.90}, // 4: strong slant
	{-0.16, 1.5, 0.90, 1.00},
	{0.02, 1.8, 0.95, 1.10},  // 6: heavy, tall
	{0.26, 1.0, 1.00, 0.92},  // 7: thin, slanted
	{-0.04, 2.1, 1.20, 1.12}, // 8: heaviest, widest
	{0.14, 0.9, 0.80, 1.08},  // 9: thin, narrow, tall
}

// Generate renders one image of the given digit (0–9).
func (g *DigitGen) Generate(digit int) *Image {
	if digit < 0 || digit > 9 {
		// Invariant: digits come from the experiments' fixed lists, never from input.
		panic("synth: digit out of range")
	}
	im := NewImage(1, DigitSize, DigitSize)
	rng := g.rng
	st := classStyle[digit]

	// Per-sample geometry jitter around the class style.
	cx := 14 + rng.Range(-2, 2)
	cy := 14 + rng.Range(-2, 2)
	halfW := (5 + rng.Range(-0.7, 1.0)) * st.wScale
	halfH := (8 + rng.Range(-1.0, 1.0)) * st.hScale
	thick := st.thick + rng.Range(-0.2, 0.4)
	ink := 0.75 + rng.Range(0, 0.25)
	slant := st.slant + rng.Range(-0.06, 0.06)

	// Segment endpoints in (y, x), relative to centre.
	type seg struct{ y0, x0, y1, x1 float64 }
	segs := [7]seg{
		{-halfH, -halfW, -halfH, halfW}, // a: top
		{-halfH, halfW, 0, halfW},       // b: top-right
		{0, halfW, halfH, halfW},        // c: bottom-right
		{halfH, -halfW, halfH, halfW},   // d: bottom
		{0, -halfW, halfH, -halfW},      // e: bottom-left
		{-halfH, -halfW, 0, -halfW},     // f: top-left
		{0, -halfW, 0, halfW},           // g: middle
	}
	for si, lit := range sevenSegments[digit] {
		if !lit {
			continue
		}
		s := segs[si]
		g.strokeLine(im,
			cy+s.y0, cx+s.x0+slant*s.y0,
			cy+s.y1, cx+s.x1+slant*s.y1,
			thick, ink)
	}

	if g.Noise > 0 {
		for i := range im.Pix {
			im.Pix[i] = clamp01(im.Pix[i] + rng.Norm()*g.Noise)
		}
	}
	return im
}

// strokeLine rasterises a thick antialiased-ish line by stamping discs
// along its length.
func (g *DigitGen) strokeLine(im *Image, y0, x0, y1, x1, thick, ink float64) {
	steps := int(2 * (absf(y1-y0) + absf(x1-x0)))
	if steps < 2 {
		steps = 2
	}
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		y := y0 + (y1-y0)*t
		x := x0 + (x1-x0)*t
		r := thick / 2
		for dy := -int(r) - 1; dy <= int(r)+1; dy++ {
			for dx := -int(r) - 1; dx <= int(r)+1; dx++ {
				py := int(y) + dy
				px := int(x) + dx
				ddy := float64(py) - y
				ddx := float64(px) - x
				d := ddy*ddy + ddx*ddx
				if d <= r*r {
					if ink > im.At(0, py, px) {
						im.Set(0, py, px, ink)
					}
				}
			}
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// LabeledImage pairs an image with its class label.
type LabeledImage struct {
	Image *Image
	Label int
}

// DigitDataset renders n images per listed digit class.
func DigitDataset(seed uint64, classes []int, nPerClass int) []LabeledImage {
	gen := NewDigitGen(seed)
	var out []LabeledImage
	for _, c := range classes {
		for i := 0; i < nPerClass; i++ {
			out = append(out, LabeledImage{Image: gen.Generate(c), Label: c})
		}
	}
	return out
}
