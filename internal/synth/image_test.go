package synth

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/tensor"
)

func TestImageSetAtBounds(t *testing.T) {
	im := NewImage(1, 4, 4)
	im.Set(0, 2, 3, 0.5)
	if im.At(0, 2, 3) != 0.5 {
		t.Fatal("set/at roundtrip failed")
	}
	// Out-of-bounds are silent no-ops / zeros.
	im.Set(0, -1, 0, 1)
	im.Set(0, 0, 99, 1)
	if im.At(0, -1, 0) != 0 || im.At(0, 0, 99) != 0 {
		t.Fatal("out-of-bounds access should read 0")
	}
}

func TestImageSetClamps(t *testing.T) {
	im := NewImage(1, 2, 2)
	im.Set(0, 0, 0, 1.7)
	im.Set(0, 0, 1, -0.5)
	if im.At(0, 0, 0) != 1 || im.At(0, 0, 1) != 0 {
		t.Fatal("Set must clamp to [0,1]")
	}
}

func TestFillRectAndMean(t *testing.T) {
	im := NewImage(3, 4, 4)
	im.Fill(1, 1, 1)
	if math.Abs(tensor.Mean(im.Pix)-1) > 1e-12 {
		t.Fatalf("mean=%v", tensor.Mean(im.Pix))
	}
	im2 := NewImage(3, 4, 4)
	im2.FillRect(0, 0, 2, 4, 1, 1, 1) // top half
	if math.Abs(tensor.Mean(im2.Pix)-0.5) > 1e-12 {
		t.Fatalf("half-fill mean=%v", tensor.Mean(im2.Pix))
	}
}

func TestScaleDarkens(t *testing.T) {
	im := NewImage(1, 2, 2)
	im.Fill(0.8, 0.8, 0.8)
	im.Scale(0.5)
	if math.Abs(im.At(0, 0, 0)-0.4) > 1e-12 {
		t.Fatal("scale failed")
	}
}

func TestBlendToward(t *testing.T) {
	im := NewImage(1, 1, 1)
	im.Set(0, 0, 0, 0.2)
	im.BlendToward(1.0, 0.5)
	if math.Abs(im.At(0, 0, 0)-0.6) > 1e-12 {
		t.Fatalf("blend=%v", im.At(0, 0, 0))
	}
}

func TestDesaturateMovesTowardLuma(t *testing.T) {
	im := NewImage(3, 1, 1)
	im.SetRGB(0, 0, 1, 0, 0)
	im.Desaturate(1)
	r, g, b := im.At(0, 0, 0), im.At(1, 0, 0), im.At(2, 0, 0)
	if math.Abs(r-g) > 1e-9 || math.Abs(g-b) > 1e-9 {
		t.Fatalf("full desaturation should be grey: %v %v %v", r, g, b)
	}
	if math.Abs(r-0.299) > 1e-9 {
		t.Fatalf("expected luminance 0.299, got %v", r)
	}
}

func TestDownsample(t *testing.T) {
	im := NewImage(1, 4, 4)
	im.FillRect(0, 0, 2, 2, 1, 1, 1) // top-left quadrant white
	d := im.Downsample(2)
	if d.H != 2 || d.W != 2 {
		t.Fatalf("downsample shape %dx%d", d.H, d.W)
	}
	if d.At(0, 0, 0) != 1 || d.At(0, 1, 1) != 0 {
		t.Fatalf("downsample values wrong: %v", d.Pix)
	}
}

// downsampleRef is Downsample as it was first written, one bounds-tested
// At and one clamping Set per pixel. The row-sliced version must reproduce
// it bit for bit: frames reach the DA-GAN through it, so one changed bit
// moves every latent and every fingerprint downstream.
func downsampleRef(im *Image, factor int) *Image {
	oh, ow := im.H/factor, im.W/factor
	out := NewImage(im.C, oh, ow)
	inv := 1 / float64(factor*factor)
	for c := 0; c < im.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var s float64
				for dy := 0; dy < factor; dy++ {
					for dx := 0; dx < factor; dx++ {
						s += im.At(c, y*factor+dy, x*factor+dx)
					}
				}
				out.Set(c, y, x, s*inv)
			}
		}
	}
	return out
}

func TestDownsampleMatchesPerPixelReference(t *testing.T) {
	rng := tensor.NewRNG(23)
	for _, sz := range []struct{ c, h, w int }{
		{3, 27, 48}, {1, 7, 5}, {3, 9, 9}, {2, 2, 3}, {1, 1, 1}, {3, 3, 2},
	} {
		im := NewImage(sz.c, sz.h, sz.w)
		for i := range im.Pix {
			im.Pix[i] = rng.Float64()
		}
		// Values Set never stores but a caller may: the clamp and the sum
		// must treat them as the reference does.
		im.Pix[0] = math.Copysign(0, -1)
		im.Pix[len(im.Pix)-1] = 1.5
		im.Pix[len(im.Pix)/2] = math.NaN()
		for factor := 1; factor <= 3; factor++ {
			got, want := im.Downsample(factor), downsampleRef(im, factor)
			if got.C != want.C || got.H != want.H || got.W != want.W {
				t.Fatalf("%v /%d: shape %v, want %v", im, factor, got, want)
			}
			// The into-form writes every element of a stale destination.
			into := make([]float64, len(want.Pix))
			for i := range into {
				into[i] = -7
			}
			im.DownsampleInto(into, factor)
			for i, v := range want.Pix {
				if math.Float64bits(got.Pix[i]) != math.Float64bits(v) {
					t.Fatalf("%v /%d: pixel %d = %v, reference %v", im, factor, i, got.Pix[i], v)
				}
				if math.Float64bits(into[i]) != math.Float64bits(v) {
					t.Fatalf("%v /%d: DownsampleInto pixel %d = %v, reference %v", im, factor, i, into[i], v)
				}
			}
		}
	}
}

// TestDownsampleIntoWrongLength: a destination of any other length than the
// downsampled image's is a programming error and says so.
func TestDownsampleIntoWrongLength(t *testing.T) {
	im := NewImage(3, 8, 8)
	for _, n := range []int{0, 3*4*4 - 1, 3*4*4 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DownsampleInto accepted %d values for a 3x4x4 result", n)
				}
			}()
			im.DownsampleInto(make([]float64, n), 2)
		}()
	}
}

// BenchmarkDownsample is the frame encoder of the serving path: every
// frame is halved before the DA-GAN projects it.
func BenchmarkDownsample(b *testing.B) {
	cfg := DefaultSceneConfig()
	im := NewSceneGen(1, cfg).GenerateSubset(NightData).Image
	for _, factor := range []int{2, 3} {
		b.Run(map[int]string{2: "half", 3: "third"}[factor], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im.Downsample(factor)
			}
		})
	}
	b.Run("half-into", func(b *testing.B) {
		dst := make([]float64, im.C*(im.H/2)*(im.W/2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			im.DownsampleInto(dst, 2)
		}
	})
}

func TestBoxIoU(t *testing.T) {
	a := Box{X: 0, Y: 0, W: 10, H: 10}
	b := Box{X: 0, Y: 0, W: 10, H: 10}
	if math.Abs(a.IoU(b)-1) > 1e-12 {
		t.Fatal("identical boxes should have IoU 1")
	}
	c := Box{X: 20, Y: 20, W: 5, H: 5}
	if a.IoU(c) != 0 {
		t.Fatal("disjoint boxes should have IoU 0")
	}
	d := Box{X: 5, Y: 0, W: 10, H: 10}
	// inter = 5*10 = 50, union = 100+100-50 = 150
	if math.Abs(a.IoU(d)-1.0/3) > 1e-9 {
		t.Fatalf("partial IoU=%v, want 1/3", a.IoU(d))
	}
}

func TestBoxIoUProperties(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := newTestRNG(seed)
		rb := func() Box {
			return Box{X: rng.Range(0, 20), Y: rng.Range(0, 20), W: rng.Range(1, 10), H: rng.Range(1, 10)}
		}
		a, b := rb(), rb()
		iou := a.IoU(b)
		return iou >= 0 && iou <= 1 && math.Abs(iou-b.IoU(a)) < 1e-12 && math.Abs(a.IoU(a)-1) < 1e-12
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDrawDisc(t *testing.T) {
	im := NewImage(1, 10, 10)
	im.DrawDisc(5, 5, 2, 1, 1, 1)
	if im.At(0, 5, 5) != 1 {
		t.Fatal("disc centre not drawn")
	}
	if im.At(0, 0, 0) != 0 {
		t.Fatal("disc overdrawn")
	}
}
