package tensor_test

import (
	"math"
	"testing"
	"time"

	"odin/internal/nn"
	"odin/internal/tensor"
)

// secsPerCall runs f for at least 100 ms after one warm-up call (pools
// fill, shadows pack) and returns the mean seconds per call.
func secsPerCall(f func()) float64 {
	f()
	iters, start := 0, time.Now()
	for ; time.Since(start) < 100*time.Millisecond; iters++ {
		f()
	}
	return time.Since(start).Seconds() / float64(iters)
}

// TestFloat32NotSlowerThanFloat64: with the vector path on, float32 is at
// least as fast as float64 on the square matmul and on the detector's
// widest convolution (3→16 channels, 3×3, stride 2, 64×64, batch 16).
// Measured 1.5–2.2×; each dtype keeps its best of three interleaved rounds,
// so a neighbour's burst costs both alike.
func TestFloat32NotSlowerThanFloat64(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	if !tensor.Vectorized() {
		t.Skip("no vector path on this host")
	}
	kernels := []struct {
		name  string
		setup func(dt tensor.DType) func()
	}{
		{"matmul 256²", func(dt tensor.DType) func() {
			rng := tensor.NewRNG(256)
			a, b, dst := tensor.NewOf(dt, 256, 256), tensor.NewOf(dt, 256, 256), tensor.NewOf(dt, 256, 256)
			rng.FillNormal(a, 1)
			rng.FillNormal(b, 1)
			return func() { tensor.MatMulInto(dst, a, b) }
		}},
		{"conv 3→16 3×3/2 64×64 ×16", func(dt tensor.DType) func() {
			rng := tensor.NewRNG(7)
			conv := nn.NewConv2D(3, 64, 64, 16, 3, 2, 1, rng)
			x := tensor.NewOf(dt, 16, 3*64*64)
			rng.FillNormal(x, 1)
			return func() { nn.Recycle(conv.Forward(x, false)) }
		}},
	}
	for _, k := range kernels {
		f64, f32 := k.setup(tensor.F64), k.setup(tensor.F32)
		best64, best32 := math.Inf(1), math.Inf(1)
		for round := 0; round < 3; round++ {
			best64 = min(best64, secsPerCall(f64))
			best32 = min(best32, secsPerCall(f32))
		}
		if ratio := best64 / best32; ratio < 1 {
			t.Errorf("%s: float32 runs at %.2f× float64, want ≥ 1", k.name, ratio)
		} else {
			t.Logf("%s: float32 %.2f× float64", k.name, ratio)
		}
	}
}
