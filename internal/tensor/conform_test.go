package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Backend conformance: one shared table of kernel cases runs against every
// registered backend, so a new backend cannot pass the suite without
// matching the float64 reference semantics — transpose variants, bias
// fusion, shape validation, and the edge shapes that exercise unroll tails
// (k not a multiple of 4, odd row counts that break the 2-row pairing,
// single-row and single-column operands, a zero-width product).

// naiveRef computes the requested product in float64 with a plain triple
// loop, reading operands through the dtype-agnostic At accessor. It is the
// ground truth every backend is compared against.
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

// tolFor scales the comparison tolerance to the backend's precision: the
// float64 backend must reproduce the naive reference near-exactly (it sums
// in a different order, so allow bottom-bit noise), float32 rounds each of
// ~k accumulation steps to 24 bits.
func tolFor(dt DType, k int) float64 {
	if dt == F32 {
		return 1e-5 * float64(k+1)
	}
	return 1e-12 * float64(k+1)
}

func TestBackendConformance(t *testing.T) {
	ops := []string{"matmul", "matmulBias", "matmulAT", "matmulBT"}
	for _, bk := range Backends() {
		dt := bk.DType()
		for _, op := range ops {
			for _, s := range conformShapes() {
				t.Run(fmt.Sprintf("%s/%s/%dx%dx%d", bk.Name(), op, s.m, s.k, s.n), func(t *testing.T) {
					rng := NewRNG(42)
					var a, b, bias *Mat
					switch op {
					case "matmulAT":
						a = randFilled(dt, s.k, s.m, rng)
						b = randFilled(dt, s.k, s.n, rng)
					case "matmulBT":
						a = randFilled(dt, s.m, s.k, rng)
						b = randFilled(dt, s.n, s.k, rng)
					default:
						a = randFilled(dt, s.m, s.k, rng)
						b = randFilled(dt, s.k, s.n, rng)
					}
					if op == "matmulBias" {
						bias = randFilled(dt, 1, s.n, rng)
					}
					dst := NewOf(dt, s.m, s.n)
					runKernel(op, dst, a, b, bias)
					want := naiveRef(op, a, b, bias)
					tol := tolFor(dt, s.k)
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
}

func randFilled(dt DType, r, c int, rng *RNG) *Mat {
	m := NewOf(dt, r, c)
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

// TestBackendDeterminismAcrossWorkers pins the determinism contract: within
// one backend, kernel output bits must not depend on the parallelism level
// — nor, for the wide-short products convolution makes, on whether the
// workers split dst by rows or by column tiles (the conv shapes at batch 64
// are wide enough to take the column partition at every worker count here,
// at batch 1 and 4 they take rows or run inline).
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	defer SetParallelism(0)
	shapes := append(convShapes(), struct{ m, k, n int }{33, 70, 37}) // odd rows, k tail, > chunk sizes
	for _, bk := range Backends() {
		dt := bk.DType()
		for _, s := range shapes {
			rng := NewRNG(7)
			a := randFilled(dt, s.m, s.k, rng)
			b := randFilled(dt, s.k, s.n, rng)
			bias := randFilled(dt, 1, s.n, rng)
			at := randFilled(dt, s.k, s.m, rng)
			bt := randFilled(dt, s.n, s.k, rng)

			ops := []string{"matmul", "matmulBias", "matmulAT", "matmulBT"}
			do := func() []*Mat {
				out := make([]*Mat, len(ops))
				for i := range out {
					out[i] = NewOf(dt, s.m, s.n)
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
						t.Errorf("%s/%s %dx%dx%d: workers=%d differs from workers=1",
							bk.Name(), ops[i], s.m, s.k, s.n, workers)
					}
				}
			}
		}
	}
}

func bitsEqual(a, b *Mat) bool {
	if a.R != b.R || a.C != b.C || a.DType() != b.DType() {
		return false
	}
	for i, v := range a.V {
		if math.Float64bits(v) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	for i, v := range a.V32 {
		if math.Float32bits(v) != math.Float32bits(b.V32[i]) {
			return false
		}
	}
	return true
}

// TestVectorizedScalarBitIdentity pins the strongest kernel invariant, for
// both dtypes: the register tiles, the AVX2 row updates and the pure-Go
// scalar fallback accumulate in the same order with the same per-op
// rounding (no FMA), so the kernel path (kernelPaths) must not change one
// output bit. Row lengths cover every vector-width tail of both dtypes (and
// the empty row), the k depth leaves a remainder after the groups of four,
// a has an all-zero and partly-zero k-groups, and every operand starts one
// element into its allocation so no row is 32-byte aligned. Each width runs once on finite
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
	// unaligned returns an r×c matrix of dt whose storage starts one element
	// into a larger allocation.
	unaligned := func(dt DType, r, c int, rng *RNG) *Mat {
		var out *Mat
		if dt == F32 {
			out = FromSlice32(r, c, make([]float32, r*c+1)[1:])
		} else {
			out = FromSlice(r, c, make([]float64, r*c+1)[1:])
		}
		rng.FillNormal(out, 1)
		return out
	}
	for _, bk := range Backends() {
		dt := bk.DType()
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
			for _, planted := range []bool{false, true} {
				rng := NewRNG(uint64(11 + n))
				a := unaligned(dt, m, k, rng)
				b := unaligned(dt, k, n, rng)
				bias := unaligned(dt, 1, n, rng)
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
					out := []*Mat{unaligned(dt, m, n, rng), unaligned(dt, m, n, rng), unaligned(dt, m, n, rng)}
					MatMulInto(out[0], a, b)
					MatMulBiasInto(out[1], a, b, bias)
					MatMulATInto(out[2], at, b)
					return out
				})
				requireSameBits(t, names, outs, "%s n=%d planted=%v:", bk.Name(), n, planted)
			}
		}
	}
}

// TestKernelShapeErrors verifies shape validation fires identically for
// every backend — the checks live above the seam, so a mismatched operand
// panics before any kernel runs.
func TestKernelShapeErrors(t *testing.T) {
	for _, bk := range Backends() {
		dt := bk.DType()
		cases := []struct {
			name string
			fn   func()
		}{
			{"matmul-inner", func() { MatMulInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 2, 2)) }},
			{"matmul-dst", func() { MatMulInto(NewOf(dt, 3, 2), NewOf(dt, 2, 3), NewOf(dt, 3, 2)) }},
			{"bias-len", func() {
				MatMulBiasInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 3, 2), NewOf(dt, 1, 3))
			}},
			{"at", func() { MatMulATInto(NewOf(dt, 2, 2), NewOf(dt, 3, 2), NewOf(dt, 2, 2)) }},
			{"bt", func() { MatMulBTInto(NewOf(dt, 2, 2), NewOf(dt, 2, 3), NewOf(dt, 2, 2)) }},
		}
		for _, tc := range cases {
			t.Run(bk.Name()+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected shape panic")
					}
				}()
				tc.fn()
			})
		}
	}
}

// TestKernelDTypeMismatch verifies mixing dtypes across operands panics
// instead of silently reading a nil storage slice.
func TestKernelDTypeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dtype mismatch panic")
		}
	}()
	MatMulInto(New(2, 2), NewOf(F32, 2, 3), NewOf(F32, 3, 2))
}
