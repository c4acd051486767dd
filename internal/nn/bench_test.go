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

func BenchmarkConv2DBackward(b *testing.B) {
	layer, x := benchConv()
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

// BenchmarkConv2D runs the specialized detector's two backbone convolutions
// in inference mode at one frame, one serving block and one whole window —
// the per-layer half of the block-sharding story (DESIGN §4): ns per frame
// should not depend on N once each sample's patch window stays in cache.
func BenchmarkConv2D(b *testing.B) {
	rng := tensor.NewRNG(6)
	for _, l := range []*Conv2D{
		NewConv2D(3, 27, 48, 10, 3, 2, 1, rng),
		NewConv2D(10, 14, 24, 14, 3, 2, 1, rng),
	} {
		for _, n := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%dx%dx%d_s%d/n%d", l.InC, l.InH, l.InW, l.Stride, n), func(b *testing.B) {
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

// BenchmarkIm2col unrolls the specialized detector's two backbone
// convolutions (3×3, stride 2, pad 1 on a 27×48 frame) and a stride-1 layer
// at serving batch sizes — a quarter of serving time once the matmul behind
// it is vectorized.
func BenchmarkIm2col(b *testing.B) {
	rng := tensor.NewRNG(5)
	for _, l := range []*Conv2D{
		NewConv2D(3, 27, 48, 10, 3, 2, 1, rng),
		NewConv2D(10, 14, 24, 14, 3, 2, 1, rng),
		NewConv2D(24, 7, 12, 24, 3, 1, 1, rng),
	} {
		for _, n := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("%dx%dx%d_s%d/n%d", l.InC, l.InH, l.InW, l.Stride, n), func(b *testing.B) {
				spatial := l.OutH * l.OutW
				x := tensor.New(n, l.InSize())
				rng.FillNormal(x, 1)
				cols := tensor.New(l.patchRows(), n*spatial)
				b.SetBytes(int64(8 * cols.Len()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s := 0; s < n; s++ {
						im2colInto(l, x.Row(s), cols.V, cols.C, s*spatial)
					}
				}
			})
		}
	}
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
