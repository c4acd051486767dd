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
	if im.DownsampledLen() != 4 {
		t.Fatalf("downsampled length %d, want 4", im.DownsampledLen())
	}
	d := make([]float64, 4)
	im.DownsampleInto(d)
	if d[0] != 1 || d[3] != 0 {
		t.Fatalf("downsample values wrong: %v", d)
	}
}

// downsampleRef is the halving as it was first written, one bounds-tested
// At and one clamping Set per pixel. DownsampleInto must reproduce it bit
// for bit: frames reach the DA-GAN through it, so one changed bit moves
// every latent and every fingerprint downstream.
func downsampleRef(im *Image) *Image {
	oh, ow := im.H/2, im.W/2
	out := NewImage(im.C, oh, ow)
	for c := 0; c < im.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var s float64
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						s += im.At(c, y*2+dy, x*2+dx)
					}
				}
				out.Set(c, y, x, s*0.25)
			}
		}
	}
	return out
}

func TestDownsampleMatchesPerPixelReference(t *testing.T) {
	rng := tensor.NewRNG(23)
	for _, sz := range []struct{ c, h, w int }{
		{3, 27, 48}, {1, 7, 5}, {3, 9, 9}, {2, 2, 3}, {1, 1, 1}, {3, 3, 2}, {3, 4, 18},
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
		if sz.h >= 2 && sz.w >= 4 { // a whole block of −0, which halves to +0
			for _, i := range []int{2, 3, sz.w + 2, sz.w + 3} {
				im.Pix[i] = math.Copysign(0, -1)
			}
		}
		want := downsampleRef(im)
		// The kernel writes every element of a stale destination.
		got := make([]float64, im.DownsampledLen())
		for i := range got {
			got[i] = -7
		}
		im.DownsampleInto(got)
		if len(got) != len(want.Pix) {
			t.Fatalf("%v: %d values, reference %d", im, len(got), len(want.Pix))
		}
		for i, v := range want.Pix {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("%v: pixel %d = %v, reference %v", im, i, got[i], v)
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
			im.DownsampleInto(make([]float64, n))
		}()
	}
}

// BenchmarkDownsample is the frame encoder of the serving path: every
// frame is halved into a row of the projector's batch before it projects.
func BenchmarkDownsample(b *testing.B) {
	cfg := DefaultSceneConfig()
	im := NewSceneGen(1, cfg).GenerateSubset(NightData).Image
	b.Run("half-into", func(b *testing.B) {
		dst := make([]float64, im.DownsampledLen())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			im.DownsampleInto(dst)
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
