package nn

import (
	"fmt"
	"testing"

	"odin/internal/tensor"
)

// CIFAR-like shapes: 3×32×32 inputs, 16 3×3 filters for the conv stack and
// a 3072→256 projection for the dense stack, batch 16/64 — the shapes the
// DA-GAN bootstrap and detector training loops spend their time in.

func benchConv() (*Conv2D, *tensor.Mat) {
	rng := tensor.NewRNG(1)
	layer := NewConv2D(3, 32, 32, 16, 3, 1, 1, rng)
	x := tensor.New(16, 3*32*32)
	rng.FillNormal(x, 1)
	return layer, x
}

func BenchmarkConv2DForward(b *testing.B) {
	layer, x := benchConv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Recycling the output matches a real training step, where
		// Network.Backward hands every intermediate back to the pool.
		Recycle(layer.Forward(x, true))
	}
}

// BenchmarkConv2DBackward is a training step's backward pass — dW, db and
// dx — at batch 16: the CIFAR-like layer, kept for continuity, and
// detectorConvs.
func BenchmarkConv2DBackward(b *testing.B) {
	cifar, x := benchConv()
	b.Run("cifar", func(b *testing.B) { benchBackward(b, cifar, x) })
	rng := tensor.NewRNG(6)
	for _, l := range detectorConvs(rng) {
		b.Run(fmt.Sprintf("%dx%dx%d_k%ds%d", l.InC, l.InH, l.InW, l.K, l.Stride), func(b *testing.B) {
			x := tensor.New(16, l.InSize())
			rng.FillNormal(x, 1)
			benchBackward(b, l, x)
		})
	}
}

func benchBackward(b *testing.B, layer *Conv2D, x *tensor.Mat) {
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(2).FillNormal(grad, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Weight.Grad.Zero()
		layer.Bias.Grad.Zero()
		Recycle(layer.Backward(grad))
	}
}

// detectorConvs are the specialized detector's two backbone convolutions,
// the baseline's stride-1 layer and the 1×1 head.
func detectorConvs(rng *tensor.RNG) []*Conv2D {
	return []*Conv2D{
		NewConv2D(3, 27, 48, 10, 3, 2, 1, rng),
		NewConv2D(10, 14, 24, 14, 3, 2, 1, rng),
		NewConv2D(24, 7, 12, 24, 3, 1, 1, rng),
		NewConv2D(14, 7, 12, 10, 1, 1, 0, rng),
	}
}

// BenchmarkConv2D runs detectorConvs in inference mode at one frame, one
// serving block and one whole window — the per-layer half of the
// block-sharding story (DESIGN §4): ns per frame should not depend on N once
// each sample's scratch stays in cache.
func BenchmarkConv2D(b *testing.B) {
	rng := tensor.NewRNG(6)
	for _, l := range detectorConvs(rng) {
		for _, n := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%dx%dx%d_k%ds%d/n%d", l.InC, l.InH, l.InW, l.K, l.Stride, n), func(b *testing.B) {
				x := tensor.New(n, l.InSize())
				rng.FillNormal(x, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Recycle(l.Forward(x, false))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
			})
		}
	}
}

// BenchmarkPhaseSplit is what every convolution does instead of unrolling a
// patch window: the specialized detector's two backbone layers and a
// stride-1 layer, samples rewritten once into phase planes (≈1× the input,
// against the window's 2.25× at stride 2 and 9× at stride 1).
func BenchmarkPhaseSplit(b *testing.B) {
	rng := tensor.NewRNG(5)
	for _, l := range []*Conv2D{
		NewConv2D(3, 27, 48, 10, 3, 2, 1, rng),
		NewConv2D(10, 14, 24, 14, 3, 2, 1, rng),
		NewConv2D(24, 7, 12, 24, 3, 1, 1, rng),
	} {
		for _, n := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("%dx%dx%d_s%d/n%d", l.InC, l.InH, l.InW, l.Stride, n), func(b *testing.B) {
				x := tensor.New(n, l.InSize())
				rng.FillNormal(x, 1)
				planes := make([]float64, l.planesLen())
				b.SetBytes(int64(8 * n * len(planes)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s := 0; s < n; s++ {
						splitPlanes(l, x.Row(s), l.InW, l.InH*l.InW, planes)
					}
				}
			})
		}
	}
}

// BenchmarkConvStack runs whole backbones in inference mode, one frame and
// one serving block: the specialized detector's
// conv → act → conv → act → head, which is a single run a sample goes through
// out of scratch, and the baseline's, whose BatchNorm layers cut it into
// four one-layer runs with batch matrices between.
func BenchmarkConvStack(b *testing.B) {
	rng := tensor.NewRNG(8)
	stack := func(bn bool, channels, strides []int) *Network {
		var layers []Layer
		inC, h, w := 3, 27, 48
		for i, ch := range channels {
			c := NewConv2D(inC, h, w, ch, 3, strides[i], 1, rng)
			layers = append(layers, c)
			if bn {
				layers = append(layers, NewBatchNorm(c.OutSize()))
			}
			layers = append(layers, NewLeakyReLU(0.1))
			inC, h, w = ch, c.OutH, c.OutW
		}
		return NewNetwork("stack", append(layers, NewConv2D(inC, h, w, 10, 1, 1, 0, rng))...)
	}
	for _, s := range []struct {
		name string
		net  *Network
	}{
		{"specialized", stack(false, []int{10, 14}, []int{2, 2})},
		{"yolo", stack(true, []int{16, 24, 24}, []int{2, 2, 1})},
	} {
		for _, n := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/n%d", s.name, n), func(b *testing.B) {
				x := tensor.New(n, 3*27*48)
				rng.FillNormal(x, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Recycle(s.net.Forward(x, false))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
			})
		}
	}
}

// BenchmarkDense is the DA-GAN encoder's first layer over one serving block,
// 8×936×128 with its ReLU — four k-blocks, the bias riding the first and the
// activation the last.
func BenchmarkDense(b *testing.B) {
	rng := tensor.NewRNG(9)
	net := NewNetwork("enc", NewDense(936, 128, rng), NewReLU())
	b.Run("8x936x128", func(b *testing.B) {
		x := tensor.New(8, 936)
		rng.FillNormal(x, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Recycle(net.Forward(x, false))
		}
	})
}

func benchDense() (*Dense, *tensor.Mat) {
	rng := tensor.NewRNG(3)
	layer := NewDense(3072, 256, rng)
	x := tensor.New(64, 3072)
	rng.FillNormal(x, 1)
	return layer, x
}

func BenchmarkDenseForward(b *testing.B) {
	layer, x := benchDense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Recycle(layer.Forward(x, true))
	}
}

func BenchmarkDenseBackward(b *testing.B) {
	layer, x := benchDense()
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(4).FillNormal(grad, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Weight.Grad.Zero()
		layer.Bias.Grad.Zero()
		Recycle(layer.Backward(grad))
	}
}
