package synth

import (
	"math"

	"odin/internal/tensor"
)

// Object classes present in the dash-cam scenes, a subset of BDD's ten
// classes chosen to cover the paper's queries (cars, trucks) plus the
// classes its dataflow figure names (person, traffic light, sign).
const (
	ClassCar = iota
	ClassTruck
	ClassPerson
	ClassTrafficLight
	ClassSign
	NumClasses
)

// ClassName returns the human-readable name of an object class.
func ClassName(c int) string {
	switch c {
	case ClassCar:
		return "car"
	case ClassTruck:
		return "truck"
	case ClassPerson:
		return "person"
	case ClassTrafficLight:
		return "traffic light"
	case ClassSign:
		return "sign"
	}
	return "unknown"
}

// ClassByName maps a lowercase class name back to its id, returning -1 when
// unknown. Used by the query engine's WHERE class='car' predicate.
func ClassByName(name string) int {
	for c := 0; c < NumClasses; c++ {
		if ClassName(c) == name {
			return c
		}
	}
	return -1
}

// Box is a ground-truth or predicted object box in pixel coordinates
// (top-left origin).
type Box struct {
	Class      int
	X, Y, W, H float64
}

// IoU returns the intersection-over-union of two boxes.
func (b Box) IoU(o Box) float64 {
	x0 := math.Max(b.X, o.X)
	y0 := math.Max(b.Y, o.Y)
	x1 := math.Min(b.X+b.W, o.X+o.W)
	y1 := math.Min(b.Y+b.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	inter := (x1 - x0) * (y1 - y0)
	union := b.W*b.H + o.W*o.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Frame is one video frame: the rendered image, its ground-truth boxes and
// the environment domain it was rendered under.
type Frame struct {
	Index  int
	Image  *Image
	Boxes  []Box
	Domain Domain
}

// SceneConfig controls the scene renderer.
type SceneConfig struct {
	H, W int // frame size; default 27×48 (16:9)
}

// DefaultSceneConfig returns the standard 48×27 RGB configuration.
func DefaultSceneConfig() SceneConfig { return SceneConfig{H: 27, W: 48} }

// SceneGen renders BDD-like dash-cam frames: sky, road, roadside, objects
// with ground-truth boxes, followed by domain-dependent global appearance
// transforms (illumination, fog, rain streaks, snow speckle) and emissive
// elements (traffic-light bulbs, head-lights at night).
type SceneGen struct {
	cfg SceneConfig
	rng *tensor.RNG
	n   int
}

// NewSceneGen returns a scene generator with the given seed.
func NewSceneGen(seed uint64, cfg SceneConfig) *SceneGen {
	if cfg.H == 0 || cfg.W == 0 {
		cfg = DefaultSceneConfig()
	}
	return &SceneGen{cfg: cfg, rng: tensor.NewRNG(seed)}
}

// horizon returns the y coordinate separating sky from ground.
func (s *SceneGen) horizon() int { return s.cfg.H * 2 / 5 }

// Generate renders one frame under the given domain.
func (s *SceneGen) Generate(d Domain) *Frame {
	f, sigma := s.scene(d)
	addNoise(f.Image.Pix, s.rng, sigma)
	return f
}

// scene renders one frame under the given domain up to its sensor noise,
// the frame's last draws, and returns the noise's standard deviation.
func (s *SceneGen) scene(d Domain) (*Frame, float64) {
	im := NewImage(3, s.cfg.H, s.cfg.W)
	hz := s.horizon()

	s.paintBackground(im, d, hz)
	boxes := s.placeObjects(im, d, hz)
	sigma := s.applyDomain(im, d, boxes)

	f := &Frame{Index: s.n, Image: im, Boxes: boxes, Domain: d}
	s.n++
	return f, sigma
}

// GenerateSubset renders one frame from a domain sampled out of the subset.
func (s *SceneGen) GenerateSubset(sub Subset) *Frame {
	return s.Generate(sub.SampleDomain(s.rng))
}

// Dataset renders n frames from the subset's domain distribution, exactly
// the frames and generator state n GenerateSubset calls would give; n <= 0
// renders none. Scenes are drawn in order on the calling goroutine, each
// frame's noise generator recorded and the shared one skipped past it; the
// noise, most of a frame's cost, then runs on the worker pool, each frame
// writing only its own image.
func (s *SceneGen) Dataset(sub Subset, n int) []*Frame {
	type noise struct {
		rng   tensor.RNG
		sigma float64
	}
	n = max(n, 0)
	out := make([]*Frame, n)
	jobs := make([]noise, n)
	for i := range out {
		f, sigma := s.scene(sub.SampleDomain(s.rng))
		out[i], jobs[i] = f, noise{*s.rng, sigma}
		s.rng.SkipNorms(len(f.Image.Pix))
	}
	tensor.ParallelWorkers(n, tensor.Parallelism(), func(start, end int) {
		for i := start; i < end; i++ {
			addNoise(out[i].Image.Pix, &jobs[i].rng, jobs[i].sigma)
		}
	})
	return out
}

// addNoise adds sigma-scaled sensor noise to every pixel, in order, and
// clamps the result to [0, 1] as clamp01 does. A noisy dark pixel drops
// below zero at random, so the lower clamp clears a negative value's bits
// instead of branching. That matches clamp01 because the sum is never −0
// or NaN: the pixel is finite and a Norm sample never zero.
func addNoise(pix []float64, rng *tensor.RNG, sigma float64) {
	for i := range pix {
		b := math.Float64bits(pix[i] + rng.Norm()*sigma)
		v := math.Float64frombits(b &^ uint64(int64(b)>>63))
		if v > 1 {
			v = 1
		}
		pix[i] = v
	}
}

func (s *SceneGen) paintBackground(im *Image, d Domain, hz int) {
	rng := s.rng
	// Sky gradient.
	var skyTop, skyBot [3]float64
	switch {
	case d.Time == Night:
		skyTop = [3]float64{0.05, 0.05, 0.12}
		skyBot = [3]float64{0.08, 0.08, 0.16}
	case d.Time == Dawn:
		skyTop = [3]float64{0.55, 0.40, 0.45}
		skyBot = [3]float64{0.85, 0.60, 0.40}
	case d.Weather == Overcast || d.Weather == Rainy:
		skyTop = [3]float64{0.55, 0.57, 0.60}
		skyBot = [3]float64{0.65, 0.67, 0.70}
	case d.Weather == Snowy:
		skyTop = [3]float64{0.75, 0.77, 0.80}
		skyBot = [3]float64{0.85, 0.86, 0.88}
	case d.Weather == Foggy:
		skyTop = [3]float64{0.70, 0.71, 0.72}
		skyBot = [3]float64{0.75, 0.76, 0.77}
	default: // clear day
		skyTop = [3]float64{0.35, 0.55, 0.90}
		skyBot = [3]float64{0.60, 0.75, 0.95}
	}
	for y := 0; y < hz; y++ {
		t := float64(y) / float64(hz)
		for x := 0; x < s.cfg.W; x++ {
			im.SetRGB(y, x,
				skyTop[0]+(skyBot[0]-skyTop[0])*t,
				skyTop[1]+(skyBot[1]-skyTop[1])*t,
				skyTop[2]+(skyBot[2]-skyTop[2])*t)
		}
	}

	// Ground: roadside strips + asphalt centre.
	roadL := s.cfg.W / 5
	roadR := s.cfg.W - s.cfg.W/5
	var side [3]float64
	switch {
	case d.Weather == Snowy:
		side = [3]float64{0.82, 0.83, 0.85} // snow cover
	case d.Time == Night:
		side = [3]float64{0.05, 0.07, 0.05}
	case d.Time == Dawn:
		side = [3]float64{0.35, 0.30, 0.22}
	default:
		side = [3]float64{0.25, 0.45, 0.22} // grass
	}
	asphalt := 0.30
	if d.Weather == Rainy {
		asphalt = 0.22 // wet, darker
	}
	if d.Time == Night {
		asphalt = 0.10
	}
	for y := hz; y < s.cfg.H; y++ {
		depth := float64(y-hz) / float64(s.cfg.H-hz)
		// Road widens toward the viewer.
		l := roadL - int(depth*float64(roadL)*0.7)
		r := roadR + int(depth*float64(roadL)*0.7)
		for x := 0; x < s.cfg.W; x++ {
			if x >= l && x < r {
				a := asphalt * (0.8 + 0.4*depth)
				im.SetRGB(y, x, a, a, a*1.05)
			} else {
				im.SetRGB(y, x, side[0]*(0.7+0.5*depth), side[1]*(0.7+0.5*depth), side[2]*(0.7+0.5*depth))
			}
		}
	}
	// Lane markings: dashed centre line.
	cx := s.cfg.W / 2
	for y := hz + 1; y < s.cfg.H; y += 2 {
		if (y/2)%2 == 0 {
			lm := 0.85
			if d.Time == Night {
				lm = 0.4
			}
			im.SetRGB(y, cx, lm, lm, 0.6)
		}
	}
	// Location flavour: city buildings, residential trees, highway extra lane.
	switch d.Location {
	case City:
		for i := 0; i < 3; i++ {
			bw := 3 + rng.Intn(3)
			bh := 4 + rng.Intn(5)
			bx := rng.Intn(s.cfg.W - bw)
			c := 0.2 + rng.Range(0, 0.15)
			if d.Time == Night {
				c *= 0.4
			}
			im.FillRect(hz-bh, bx, hz, bx+bw, c, c, c*1.1)
		}
	case Residential:
		for i := 0; i < 2; i++ {
			tx := rng.Intn(s.cfg.W)
			g := 0.35
			if d.Time == Night {
				g = 0.08
			}
			im.DrawDisc(hz-2, tx, 2.2, 0.10, g, 0.10)
		}
	case Highway:
		for y := hz + 1; y < s.cfg.H; y += 3 {
			lm := 0.7
			if d.Time == Night {
				lm = 0.35
			}
			im.SetRGB(y, cx-s.cfg.W/8, lm, lm, lm)
			im.SetRGB(y, cx+s.cfg.W/8, lm, lm, lm)
		}
	}
}

// placeObjects draws the frame's objects and returns their ground truth.
func (s *SceneGen) placeObjects(im *Image, d Domain, hz int) []Box {
	rng := s.rng
	var boxes []Box

	// Cars: 1–4 per frame.
	nCars := 1 + rng.Intn(4)
	for i := 0; i < nCars; i++ {
		boxes = append(boxes, s.drawCar(im, d, hz, false))
	}
	// Trucks are rarer (paper Table 6 relies on this imbalance).
	if rng.Float64() < 0.35 {
		boxes = append(boxes, s.drawCar(im, d, hz, true))
	}
	// Pedestrians.
	nP := 0
	if rng.Float64() < 0.5 {
		nP = 1 + rng.Intn(2)
	}
	for i := 0; i < nP; i++ {
		boxes = append(boxes, s.drawPerson(im, d, hz))
	}
	// Traffic light.
	if rng.Float64() < 0.45 {
		boxes = append(boxes, s.drawTrafficLight(im, d, hz))
	}
	// Sign.
	if rng.Float64() < 0.45 {
		boxes = append(boxes, s.drawSign(im, d, hz))
	}
	return boxes
}

// perspective returns the object scale for a ground-contact row y.
func (s *SceneGen) perspective(y, hz int) float64 {
	depth := float64(y-hz) / float64(s.cfg.H-hz)
	return 0.45 + 0.85*depth
}

func (s *SceneGen) drawCar(im *Image, d Domain, hz int, truck bool) Box {
	rng := s.rng
	gy := hz + 2 + rng.Intn(s.cfg.H-hz-3) // ground-contact row
	sc := s.perspective(gy, hz)
	var w, h float64
	if truck {
		w, h = 9*sc, 6.5*sc
	} else {
		w, h = 7*sc, 3.8*sc
	}
	if w < 3 {
		w = 3
	}
	if h < 2 {
		h = 2
	}
	x := float64(2 + rng.Intn(s.cfg.W-int(w)-4))
	y := float64(gy) - h

	// Body colour.
	var r, g, b float64
	if truck {
		// Trucks: boxy, desaturated container colours.
		base := []float64{0.75, 0.72, 0.68}
		j := rng.Range(-0.1, 0.1)
		r, g, b = base[0]+j, base[1]+j, base[2]+j
	} else {
		hues := [][3]float64{
			{0.75, 0.15, 0.15}, {0.15, 0.2, 0.7}, {0.8, 0.8, 0.82},
			{0.15, 0.15, 0.17}, {0.65, 0.65, 0.15}, {0.4, 0.42, 0.45},
		}
		hsel := hues[rng.Intn(len(hues))]
		r, g, b = hsel[0], hsel[1], hsel[2]
	}
	x0, y0 := int(x), int(y)
	x1, y1 := int(x+w), int(y+h)
	im.FillRect(y0, x0, y1, x1, r, g, b)
	// Windows: darker band on the upper part.
	wy1 := y0 + (y1-y0)/3
	im.FillRect(y0, x0+1, wy1+1, x1-1, 0.1, 0.12, 0.16)
	// Wheels.
	im.FillRect(y1-1, x0, y1, x0+2, 0.03, 0.03, 0.03)
	im.FillRect(y1-1, x1-2, y1, x1, 0.03, 0.03, 0.03)
	if truck {
		// Cab: small front box.
		im.FillRect(y1-(y1-y0)/3, x1-2, y1, x1+1, r*0.8, g*0.8, b*0.8)
	}
	cls := ClassCar
	if truck {
		cls = ClassTruck
	}
	return Box{Class: cls, X: x, Y: y, W: w, H: h}
}

func (s *SceneGen) drawPerson(im *Image, d Domain, hz int) Box {
	rng := s.rng
	gy := hz + 2 + rng.Intn(s.cfg.H-hz-3)
	sc := s.perspective(gy, hz)
	w := math.Max(1.6, 2*sc)
	h := math.Max(3, 5.5*sc)
	// Pedestrians stay near the road edges.
	var x float64
	if rng.Float64() < 0.5 {
		x = float64(1 + rng.Intn(s.cfg.W/5))
	} else {
		x = float64(s.cfg.W - s.cfg.W/5 + rng.Intn(s.cfg.W/5-int(w)-1))
	}
	y := float64(gy) - h
	x0, y0, x1, y1 := int(x), int(y), int(x+w), int(y+h)
	// Torso.
	shirt := [][3]float64{{0.7, 0.2, 0.2}, {0.2, 0.3, 0.7}, {0.2, 0.55, 0.25}, {0.75, 0.6, 0.2}}
	c := shirt[rng.Intn(len(shirt))]
	im.FillRect(y0+1, x0, y1, x1, c[0], c[1], c[2])
	// Head.
	im.FillRect(y0, x0, y0+1, x1, 0.85, 0.7, 0.55)
	// Legs darker.
	im.FillRect(y0+(y1-y0)*2/3, x0, y1, x1, 0.15, 0.15, 0.2)
	return Box{Class: ClassPerson, X: x, Y: y, W: w, H: h}
}

func (s *SceneGen) drawTrafficLight(im *Image, d Domain, hz int) Box {
	rng := s.rng
	w, h := 2.0, 4.0
	x := float64(3 + rng.Intn(s.cfg.W-8))
	y := float64(1 + rng.Intn(hz-int(h)-1))
	x0, y0, x1, y1 := int(x), int(y), int(x+w), int(y+h)
	im.FillRect(y0, x0, y1, x1, 0.12, 0.12, 0.1)
	// The lit bulb is emissive and re-painted after domain transforms.
	return Box{Class: ClassTrafficLight, X: x, Y: y, W: w, H: h}
}

func (s *SceneGen) drawSign(im *Image, d Domain, hz int) Box {
	rng := s.rng
	w, h := 3.0, 3.0
	// Roadside posts.
	var x float64
	if rng.Float64() < 0.5 {
		x = float64(1 + rng.Intn(s.cfg.W/6))
	} else {
		x = float64(s.cfg.W - s.cfg.W/6 + rng.Intn(s.cfg.W/6-int(w)))
	}
	y := float64(hz - int(h) - rng.Intn(4))
	x0, y0, x1, y1 := int(x), int(y), int(x+w), int(y+h)
	colors := [][3]float64{{0.9, 0.15, 0.1}, {0.95, 0.8, 0.1}, {0.1, 0.4, 0.85}}
	c := colors[rng.Intn(len(colors))]
	im.FillRect(y0, x0, y1, x1, c[0], c[1], c[2])
	// White border row for sign texture.
	im.FillRect(y0+(y1-y0)/2, x0, y0+(y1-y0)/2+1, x1, 0.9, 0.9, 0.9)
	return Box{Class: ClassSign, X: x, Y: y, W: w, H: h}
}

// applyDomain applies the global appearance transforms that make domains
// separable in latent space, then repaints emissive elements. It returns
// the standard deviation of the frame's sensor noise.
func (s *SceneGen) applyDomain(im *Image, d Domain, boxes []Box) float64 {
	rng := s.rng
	switch d.Time {
	case Night:
		im.Scale(0.28)
	case Dawn:
		// Warm tint, slightly dim.
		hw := im.H * im.W
		for p := 0; p < hw; p++ {
			im.Pix[p] = clamp01(im.Pix[p]*0.95 + 0.06)
			im.Pix[2*hw+p] = clamp01(im.Pix[2*hw+p] * 0.85)
		}
		im.Scale(0.9)
	}
	switch d.Weather {
	case Foggy:
		im.BlendToward(0.72, 0.55)
	case Overcast:
		im.BlendToward(0.55, 0.22)
		im.Desaturate(0.35)
	case Rainy:
		im.Scale(0.82)
		im.Desaturate(0.45)
		im.BlendToward(0.45, 0.15)
		// Diagonal rain streaks.
		n := 10 + rng.Intn(8)
		for i := 0; i < n; i++ {
			x := rng.Intn(im.W)
			y := rng.Intn(im.H)
			l := 2 + rng.Intn(3)
			for k := 0; k < l; k++ {
				v := im.At(0, y+k, x-k)
				im.SetRGB(y+k, x-k, v+0.25, v+0.26, v+0.3)
			}
		}
	case Snowy:
		im.BlendToward(0.82, 0.20)
		// Snow speckle.
		n := 25 + rng.Intn(15)
		for i := 0; i < n; i++ {
			im.SetRGB(rng.Intn(im.H), rng.Intn(im.W), 0.95, 0.95, 0.97)
		}
	}

	// Emissive elements drawn after global transforms.
	for _, b := range boxes {
		switch b.Class {
		case ClassTrafficLight:
			// Lit bulb: red or green.
			bx := int(b.X + b.W/2)
			by := int(b.Y + 1)
			if rng.Float64() < 0.5 {
				im.SetRGB(by, bx, 0.95, 0.1, 0.1)
			} else {
				im.SetRGB(by+1, bx, 0.1, 0.9, 0.2)
			}
		case ClassCar, ClassTruck:
			if d.Time == Night {
				// Tail-lights.
				y := int(b.Y + b.H - 2)
				im.SetRGB(y, int(b.X)+1, 0.9, 0.12, 0.08)
				im.SetRGB(y, int(b.X+b.W)-2, 0.9, 0.12, 0.08)
			}
		}
	}
	if d.Time == Night {
		// Street lights along the horizon.
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			im.SetRGB(s.horizon()-1-rng.Intn(3), rng.Intn(im.W), 0.9, 0.85, 0.6)
		}
	}
	// Sensor noise: slightly stronger at night (high ISO).
	if d.Time == Night {
		return 0.03
	}
	return 0.015
}
