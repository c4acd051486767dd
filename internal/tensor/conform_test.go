package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Kernel conformance: one shared table of kernel cases runs against a plain
// triple loop — transpose variants, bias fusion, shape validation, and the
// edge shapes that exercise unroll tails (k not a multiple of 4, odd row
// counts that break the 2-row pairing, single-row and single-column
// operands, a zero-width product). Subtests sit under "float64", the
// precision every kernel computes in.

// naiveRef computes the requested product with a plain triple loop. It is
// the ground truth the kernels are compared against.
func naiveRef(op string, a, b, bias *Mat) *Mat {
	var m, k, n int
	switch op {
	case "matmul", "matmulBias":
		m, k, n = a.R, a.C, b.C
	case "matmulAT":
		m, k, n = a.C, a.R, b.C
	case "matmulBT":
		m, k, n = a.R, a.C, b.R
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				switch op {
				case "matmul", "matmulBias":
					s += a.At(i, kk) * b.At(kk, j)
				case "matmulAT":
					s += a.At(kk, i) * b.At(kk, j)
				case "matmulBT":
					s += a.At(i, kk) * b.At(j, kk)
				}
			}
			if bias != nil {
				s += bias.At(0, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// conformShapes covers the unroll edges: R or C = 1, k below / straddling /
// far beyond the 4-wide unroll, odd rows (2-row pairing tail), odd columns
// (2×2 BT tile edge), a k-depth crossing the mmKBlock cache panel, and a
// product with no columns at all (a row update over an empty row).
func conformShapes() []struct{ m, k, n int } {
	return []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 5},
		{5, 1, 3},
		{3, 4, 1},
		{2, 8, 6},
		{7, 9, 11}, // odd everything: pairing + tile edges + k tail
		{4, 5, 8},
		{8, mmKBlock + 3, 4}, // k panel boundary plus remainder
		{16, 32, 16},
		{3, 8, 0},
	}
}

// tolFor scales the comparison tolerance to the depth: the kernels must
// reproduce the naive reference near-exactly, but they sum in a different
// order, so allow bottom-bit noise.
func tolFor(k int) float64 { return 1e-12 * float64(k+1) }

func TestBackendConformance(t *testing.T) {
	ops := []string{"matmul", "matmulBias", "matmulAT", "matmulBT"}
	for _, op := range ops {
		for _, s := range conformShapes() {
			t.Run(fmt.Sprintf("float64/%s/%dx%dx%d", op, s.m, s.k, s.n), func(t *testing.T) {
				rng := NewRNG(42)
				var a, b, bias *Mat
				switch op {
				case "matmulAT":
					a = randFilled(s.k, s.m, rng)
					b = randFilled(s.k, s.n, rng)
				case "matmulBT":
					a = randFilled(s.m, s.k, rng)
					b = randFilled(s.n, s.k, rng)
				default:
					a = randFilled(s.m, s.k, rng)
					b = randFilled(s.k, s.n, rng)
				}
				if op == "matmulBias" {
					bias = randFilled(1, s.n, rng)
				}
				dst := New(s.m, s.n)
				runKernel(op, dst, a, b, bias)
				want := naiveRef(op, a, b, bias)
				tol := tolFor(s.k)
				for i := 0; i < s.m; i++ {
					for j := 0; j < s.n; j++ {
						got, ref := dst.At(i, j), want.At(i, j)
						if math.Abs(got-ref) > tol*math.Max(1, math.Abs(ref)) {
							t.Fatalf("(%d,%d): got %v, want %v (tol %v)", i, j, got, ref, tol)
						}
					}
				}
			})
		}
	}
}

func randFilled(r, c int, rng *RNG) *Mat {
	m := New(r, c)
	rng.FillNormal(m, 1)
	// Sprinkle zeros so the zero-skip fast paths execute under the
	// conformance comparison too.
	for i := 0; i < m.Len(); i += 7 {
		m.Set(i/c, i%c, 0)
	}
	return m
}

func runKernel(op string, dst, a, b, bias *Mat) {
	switch op {
	case "matmul":
		MatMulInto(dst, a, b)
	case "matmulBias":
		MatMulBiasInto(dst, a, b, bias)
	case "matmulAT":
		MatMulATInto(dst, a, b)
	case "matmulBT":
		MatMulBTInto(dst, a, b)
	}
}

// TestBackendDeterminismAcrossWorkers pins the determinism contract: kernel
// output bits must not depend on the parallelism level
// — nor, for the wide-short products convolution makes, on whether the
// workers split dst by rows or by column tiles (the conv shapes at batch 64
// are wide enough to take the column partition at every worker count here,
// at batch 1 and 4 they take rows or run inline).
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	defer SetParallelism(0)
	shapes := append(convShapes(), struct{ m, k, n int }{33, 70, 37}) // odd rows, k tail, > chunk sizes
	for _, s := range shapes {
		rng := NewRNG(7)
		a := randFilled(s.m, s.k, rng)
		b := randFilled(s.k, s.n, rng)
		bias := randFilled(1, s.n, rng)
		at := randFilled(s.k, s.m, rng)
		bt := randFilled(s.n, s.k, rng)

		ops := []string{"matmul", "matmulBias", "matmulAT", "matmulBT"}
		do := func() []*Mat {
			out := make([]*Mat, len(ops))
			for i := range out {
				out[i] = New(s.m, s.n)
			}
			MatMulInto(out[0], a, b)
			MatMulBiasInto(out[1], a, b, bias)
			MatMulATInto(out[2], at, b)
			MatMulBTInto(out[3], a, bt)
			return out
		}
		SetParallelism(1)
		ref := do()
		for _, workers := range []int{2, 4, 8} {
			SetParallelism(workers)
			for i, got := range do() {
				if !bitsEqual(ref[i], got) {
					t.Errorf("%s %dx%dx%d: workers=%d differs from workers=1",
						ops[i], s.m, s.k, s.n, workers)
				}
			}
		}
	}
}

func bitsEqual(a, b *Mat) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.V {
		if math.Float64bits(v) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// TestVectorizedScalarBitIdentity pins the strongest kernel invariant: the
// register tiles, the AVX2 row updates and the pure-Go
// scalar fallback accumulate in the same order with the same per-op
// rounding (no FMA), so the kernel path (kernelPaths) must not change one
// output bit. Row lengths cover every vector-width tail (and the empty row),
// the k depth leaves a remainder after the groups of four, a has an all-zero
// and partly-zero k-groups, and every operand starts one element into its
// allocation so no row is 32-byte aligned. Each width runs once on finite
// operands, where a reordered sum shows as a rounding difference, and once
// with NaN, ±Inf, −0 and denormals planted in a, b and bias.
//
// The comparison is strict for NaN results too. Where two different NaNs
// meet in one add, x86 keeps the first operand's payload; the assembly
// puts the accumulator first, as the compiler does today. A future
// compiler that orders them otherwise would fail this test on a NaN
// payload alone.
func TestVectorizedScalarBitIdentity(t *testing.T) {
	const m, k = 8, 11 // k: two groups of four and a three-coefficient tail
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, 5e-324, -3e-310, 1e-42}
	// unaligned returns an r×c matrix whose storage starts one element into
	// a larger allocation.
	unaligned := func(r, c int, rng *RNG) *Mat {
		out := FromSlice(r, c, make([]float64, r*c+1)[1:])
		rng.FillNormal(out, 1)
		return out
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
		for _, planted := range []bool{false, true} {
			rng := NewRNG(uint64(11 + n))
			a := unaligned(m, k, rng)
			b := unaligned(k, n, rng)
			bias := unaligned(1, n, rng)
			for kk := 0; kk < k; kk++ {
				if kk < 4 {
					a.Set(1, kk, 0) // row 1: a wholly zero group, skipped
				}
				if kk%2 == 0 {
					a.Set(2, kk, 0) // row 2: zeros inside live groups, applied
				}
			}
			a.Set(3, k-1, 0)       // row 3: a zero in the tail,
			a.Set(3, k-2, negZero) // and a negative zero, skipped alike
			if planted {
				a.Set(4, 5, math.Inf(1))
				a.Set(5, 9, math.NaN())
				for i, v := range specials {
					if n > 0 {
						b.Set((i*3)%k, (i*5)%n, v)
						bias.Set(0, (i*7+1)%n, v)
					}
				}
			}
			at := a.Transpose()

			names, outs := kernelPaths(t, func() []*Mat {
				out := []*Mat{unaligned(m, n, rng), unaligned(m, n, rng), unaligned(m, n, rng)}
				MatMulInto(out[0], a, b)
				MatMulBiasInto(out[1], a, b, bias)
				MatMulATInto(out[2], at, b)
				return out
			})
			requireSameBits(t, names, outs, "n=%d planted=%v:", n, planted)
		}
	}
}

// TestKernelShapeErrors verifies shape validation fires before any kernel
// runs: a mismatched operand panics.
func TestKernelShapeErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"matmul-inner", func() { MatMulInto(New(2, 2), New(2, 3), New(2, 2)) }},
		{"matmul-dst", func() { MatMulInto(New(3, 2), New(2, 3), New(3, 2)) }},
		{"bias-len", func() {
			MatMulBiasInto(New(2, 2), New(2, 3), New(3, 2), New(1, 3))
		}},
		{"at", func() { MatMulATInto(New(2, 2), New(3, 2), New(2, 2)) }},
		{"bt", func() { MatMulBTInto(New(2, 2), New(2, 3), New(2, 2)) }},
	}
	for _, tc := range cases {
		t.Run("float64/"+tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			tc.fn()
		})
	}
}
