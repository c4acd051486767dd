package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks: square GEMMs for dense stacks, and the wide-and-short
// GEMMs of a convolution over a batch (weights OutC×(K²·InC) against a patch
// window with one column per output pixel of every sample). Every benchmark
// reports GFLOP/s.
func benchShapes() []struct{ m, k, n int } {
	return []struct{ m, k, n int }{
		{128, 128, 128},
		{256, 256, 256},
		{512, 512, 512},
		{1024, 1024, 1024},
		{16, 27, 16384}, // conv2d 3→16ch 32×32 batch-16 forward
		{64, 3072, 256}, // dense CIFAR batch-64 forward
	}
}

// convShapes are a specialized detector's convolutions written as one
// product over the batch (OutC × K²·InC weights against a patch window with
// N·spatial columns) at batch 1, 4 and 64. A dozen rows by up to 16 384
// columns — nothing like the square cases above, and the shape the column
// partition exists for. The convolutions themselves multiply a sample at a
// time through a tap table and never build the window; these are the
// kernel's reference points for that work.
func convShapes() []struct{ m, k, n int } {
	var out []struct{ m, k, n int }
	for _, n := range []int{1, 4, 64} {
		out = append(out,
			struct{ m, k, n int }{10, 27, n * 256},
			struct{ m, k, n int }{14, 90, n * 64},
			struct{ m, k, n int }{10, 14, n * 64})
	}
	return out
}

// denseShapes are the serving path's other products: the DA-GAN encoder's
// Dense layers over one block of eight frames. The first walks a 958 KB
// weight panel.
func denseShapes() []struct{ m, k, n int } {
	return []struct{ m, k, n int }{{8, 936, 128}, {8, 128, 48}}
}

func randMat(r, c int, seed uint64) *Mat {
	m := New(r, c)
	NewRNG(seed).FillNormal(m, 1)
	return m
}

// reportGFLOPS attaches the achieved GFLOP/s (2mn·k flops per multiply) to
// the benchmark line alongside the byte-throughput SetBytes gives us.
func reportGFLOPS(b *testing.B, m, k, n int) {
	flops := 2 * float64(m) * float64(k) * float64(n) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func benchShapesRun(b *testing.B, shapes []struct{ m, k, n int }, run func(b *testing.B, m, k, n int)) {
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			run(b, s.m, s.k, s.n)
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	shapes := append(append(benchShapes(), convShapes()...), denseShapes()...)
	benchShapesRun(b, shapes, func(b *testing.B, m, k, n int) {
		a := randMat(m, k, 1)
		bb := randMat(k, n, 2)
		dst := New(m, n)
		b.SetBytes(int64(8 * m * k * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, a, bb)
		}
		reportGFLOPS(b, m, k, n)
	})
}

func BenchmarkMatMulAT(b *testing.B) {
	benchShapesRun(b, benchShapes(), func(b *testing.B, m, k, n int) {
		a := randMat(k, m, 1) // aᵀ is m×k
		bb := randMat(k, n, 2)
		dst := New(m, n)
		b.SetBytes(int64(8 * m * k * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulATInto(dst, a, bb)
		}
		reportGFLOPS(b, m, k, n)
	})
}

func BenchmarkMatMulBT(b *testing.B) {
	benchShapesRun(b, benchShapes(), func(b *testing.B, m, k, n int) {
		a := randMat(m, k, 1)
		bb := randMat(n, k, 2) // bᵀ is k×n
		dst := New(m, n)
		b.SetBytes(int64(8 * m * k * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulBTInto(dst, a, bb)
		}
		reportGFLOPS(b, m, k, n)
	})
}

// TestMatMulKernelAllocs pins the pool discipline for the kernels: with
// operands and destination pre-allocated, they must run alloc-free in steady
// state. The loop runs inline (parallelism 1) so the assertion isolates the
// kernels — the parallel dispatch path's range closure per fan-out is
// accounted for separately.
func TestMatMulKernelAllocs(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	a := randMat(64, 48, 1)
	bm := randMat(48, 32, 2)
	bias := randMat(1, 32, 5)
	at := randMat(48, 64, 3) // aᵀ operand for MatMulATInto
	bt := randMat(32, 48, 4) // bᵀ operand for MatMulBTInto
	dst := New(64, 32)
	kernels := map[string]func(){
		"matmul":     func() { MatMulInto(dst, a, bm) },
		"matmulBias": func() { MatMulBiasInto(dst, a, bm, bias) },
		"matmulAT":   func() { MatMulATInto(dst, at, bm) },
		"matmulBT":   func() { MatMulBTInto(dst, a, bt) },
	}
	for name, fn := range kernels {
		fn() // warm up worker pool
		if allocs := testing.AllocsPerRun(10, fn); allocs > 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
		}
	}
}
