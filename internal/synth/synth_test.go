package synth

import (
	"math"
	"testing"

	"odin/internal/tensor"
)

func newTestRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }

func TestDigitGenDeterministic(t *testing.T) {
	a := NewDigitGen(7).Generate(3)
	b := NewDigitGen(7).Generate(3)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed must render identical digits")
		}
	}
}

func TestDigitGenRangeAndInk(t *testing.T) {
	g := NewDigitGen(1)
	for d := 0; d < 10; d++ {
		im := g.Generate(d)
		if im.H != DigitSize || im.W != DigitSize || im.C != 1 {
			t.Fatalf("digit shape wrong: %v", im)
		}
		var ink float64
		for _, v := range im.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("pixel out of range: %v", v)
			}
			ink += v
		}
		if ink < 10 {
			t.Fatalf("digit %d is nearly blank (ink=%v)", d, ink)
		}
	}
}

func TestDigitGenPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDigitGen(1).Generate(10)
}

// meanImage averages a set of images per pixel.
func meanImage(ims []*Image) []float64 {
	out := make([]float64, len(ims[0].Pix))
	for _, im := range ims {
		for i, v := range im.Pix {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(ims))
	}
	return out
}

// TestDigitsClassStructure: mean intra-class L2 distance must be smaller
// than mean inter-class distance — the property outlier detection relies on.
func TestDigitsClassStructure(t *testing.T) {
	g := NewDigitGen(11)
	var ones, eights []*Image
	for i := 0; i < 30; i++ {
		ones = append(ones, g.Generate(1))
		eights = append(eights, g.Generate(8))
	}
	m1 := meanImage(ones)
	m8 := meanImage(eights)
	inter := tensor.L2(m1, m8)
	var intra float64
	for _, im := range ones {
		intra += tensor.L2(im.Pix, m1)
	}
	intra /= float64(len(ones))
	if inter < intra {
		t.Fatalf("digit classes not separable: inter=%v intra=%v", inter, intra)
	}
}

func TestDigitDatasetLabels(t *testing.T) {
	ds := DigitDataset(5, []int{0, 1, 2}, 4)
	if len(ds) != 12 {
		t.Fatalf("dataset size %d", len(ds))
	}
	counts := map[int]int{}
	for _, li := range ds {
		counts[li.Label]++
	}
	for _, c := range []int{0, 1, 2} {
		if counts[c] != 4 {
			t.Fatalf("class %d has %d samples", c, counts[c])
		}
	}
}

func TestTextureGenAllClasses(t *testing.T) {
	g := NewTextureGen(3)
	for c := 0; c < CIFARClasses; c++ {
		im := g.Generate(c)
		if im.H != CIFARSize || im.W != CIFARSize || im.C != 3 {
			t.Fatalf("texture shape wrong for class %d", c)
		}
		for _, v := range im.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("pixel out of range: %v", v)
			}
		}
	}
}

func TestTextureGenPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTextureGen(1).Generate(CIFARClasses)
}

func TestTextureClassStructure(t *testing.T) {
	g := NewTextureGen(17)
	var a, b []*Image
	for i := 0; i < 25; i++ {
		a = append(a, g.Generate(0))
		b = append(b, g.Generate(4))
	}
	ma, mb := meanImage(a), meanImage(b)
	inter := tensor.L2(ma, mb)
	var intra float64
	for _, im := range a {
		intra += tensor.L2(im.Pix, ma)
	}
	intra /= float64(len(a))
	if inter < intra*0.5 {
		t.Fatalf("texture classes not separable: inter=%v intra=%v", inter, intra)
	}
}

func TestSceneGenFrameShape(t *testing.T) {
	g := NewSceneGen(1, DefaultSceneConfig())
	f := g.Generate(Domain{Time: Day, Weather: Clear})
	if f.Image.H != 27 || f.Image.W != 48 || f.Image.C != 3 {
		t.Fatalf("frame shape: %v", f.Image)
	}
	if len(f.Boxes) == 0 {
		t.Fatal("frame should contain objects")
	}
	for _, b := range f.Boxes {
		if b.X < 0 || b.Y < -1 || b.X+b.W > float64(f.Image.W)+2 || b.Y+b.H > float64(f.Image.H)+2 {
			t.Fatalf("box out of frame: %+v", b)
		}
		if b.W <= 0 || b.H <= 0 {
			t.Fatalf("degenerate box: %+v", b)
		}
	}
}

func TestSceneFrameIndicesIncrement(t *testing.T) {
	g := NewSceneGen(1, DefaultSceneConfig())
	f0 := g.Generate(Domain{Time: Day})
	f1 := g.Generate(Domain{Time: Day})
	if f0.Index != 0 || f1.Index != 1 {
		t.Fatalf("frame indices: %d %d", f0.Index, f1.Index)
	}
}

// TestDomainAppearanceOrdering encodes the appearance physics the drift
// detector relies on: night frames are much darker than day frames; foggy
// frames have less contrast than clear frames.
func TestDomainAppearanceOrdering(t *testing.T) {
	g := NewSceneGen(5, DefaultSceneConfig())
	meanOf := func(d Domain, n int) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += tensor.Mean(g.Generate(d).Image.Pix)
		}
		return s / float64(n)
	}
	day := meanOf(Domain{Time: Day, Weather: Clear}, 20)
	night := meanOf(Domain{Time: Night, Weather: Clear}, 20)
	snow := meanOf(Domain{Time: Day, Weather: Snowy}, 20)
	if night > day*0.6 {
		t.Fatalf("night (%v) should be much darker than day (%v)", night, day)
	}
	if snow < day {
		t.Fatalf("snow (%v) should be brighter than clear day (%v)", snow, day)
	}

	contrastOf := func(d Domain, n int) float64 {
		var s float64
		for i := 0; i < n; i++ {
			im := g.Generate(d).Image
			s += math.Sqrt(tensor.Variance(im.Pix))
		}
		return s / float64(n)
	}
	clear := contrastOf(Domain{Time: Day, Weather: Clear}, 15)
	foggy := contrastOf(Domain{Time: Day, Weather: Foggy}, 15)
	if foggy > clear {
		t.Fatalf("fog (%v) should reduce contrast vs clear (%v)", foggy, clear)
	}
}

func TestSubsetContains(t *testing.T) {
	cases := []struct {
		s    Subset
		d    Domain
		want bool
	}{
		{DayData, Domain{Time: Day, Weather: Clear}, true},
		{DayData, Domain{Time: Night, Weather: Clear}, false},
		{DayData, Domain{Time: Day, Weather: Rainy}, false},
		{NightData, Domain{Time: Night, Weather: Snowy}, true},
		{NightData, Domain{Time: Day, Weather: Clear}, false},
		{RainData, Domain{Time: Day, Weather: Rainy}, true},
		{RainData, Domain{Time: Day, Weather: Overcast}, true},
		{RainData, Domain{Time: Night, Weather: Rainy}, false},
		{SnowData, Domain{Time: Day, Weather: Snowy}, true},
		{SnowData, Domain{Time: Night, Weather: Snowy}, false},
		{FullData, Domain{Time: Night, Weather: Foggy}, true},
	}
	for _, c := range cases {
		if got := c.s.Contains(c.d); got != c.want {
			t.Fatalf("%v.Contains(%v) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestSampleDomainRespectsSubset(t *testing.T) {
	rng := tensor.NewRNG(9)
	for _, s := range AllSubsets {
		for i := 0; i < 200; i++ {
			d := s.SampleDomain(rng)
			if !s.Contains(d) {
				t.Fatalf("%v sampled out-of-subset domain %v", s, d)
			}
		}
	}
}

func TestLabeledSubsetsCount(t *testing.T) {
	subs := LabeledSubsets()
	if len(subs) != 15 {
		t.Fatalf("expected 15 weather×time subsets, got %d", len(subs))
	}
	seen := map[string]bool{}
	for _, d := range subs {
		if seen[d.String()] {
			t.Fatalf("duplicate subset %v", d)
		}
		seen[d.String()] = true
	}
}

func TestDatasetSizes(t *testing.T) {
	g := NewSceneGen(2, DefaultSceneConfig())
	ds := g.Dataset(DayData, 10)
	if len(ds) != 10 {
		t.Fatalf("dataset size %d", len(ds))
	}
	for _, f := range ds {
		if !DayData.Contains(f.Domain) {
			t.Fatalf("frame domain %v outside subset", f.Domain)
		}
	}
}

func TestClassNames(t *testing.T) {
	if ClassName(ClassCar) != "car" || ClassName(ClassTruck) != "truck" {
		t.Fatal("class names wrong")
	}
	if ClassByName("car") != ClassCar {
		t.Fatal("ClassByName(car)")
	}
	if ClassByName("dragon") != -1 {
		t.Fatal("unknown class should map to -1")
	}
	if ClassName(99) != "unknown" {
		t.Fatal("unknown id should map to 'unknown'")
	}
}

func TestDomainString(t *testing.T) {
	d := Domain{Time: Night, Weather: Rainy}
	if d.String() != "rainy-night" {
		t.Fatalf("domain string: %v", d.String())
	}
}

// TestTrucksRarerThanCars verifies the class imbalance Table 6 relies on.
func TestTrucksRarerThanCars(t *testing.T) {
	g := NewSceneGen(3, DefaultSceneConfig())
	cars, trucks := 0, 0
	for i := 0; i < 300; i++ {
		f := g.GenerateSubset(FullData)
		for _, b := range f.Boxes {
			switch b.Class {
			case ClassCar:
				cars++
			case ClassTruck:
				trucks++
			}
		}
	}
	if trucks >= cars/2 {
		t.Fatalf("trucks (%d) should be much rarer than cars (%d)", trucks, cars)
	}
}
