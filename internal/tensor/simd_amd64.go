//go:build amd64

package tensor

// Both backends' row updates, register tile and stride-2 gather dispatch to
// AVX2 when the CPU supports it. The assembly mirrors the scalar
// accumulation order exactly (see simd_amd64.s), so enabling or disabling
// vectorization never changes a single output bit — it only changes how
// many elements retire per cycle.

//go:noescape
func axpy4x64(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1x64(dst, b []float64, a float64)

//go:noescape
func axpy4x32(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

//go:noescape
func axpy1x32(dst, b []float32, a float32)

//go:noescape
func tile4x64(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)

//go:noescape
func tile4x32(dst []float32, dn int, a []float32, ai, ak int, b []float32, bn int, boff []int, kn, w, nr int, cb, rb []float32, mode int, alpha float32)

//go:noescape
func gather2x64(dst, src []float64, n, rows, dn, sn int)

//go:noescape
func gather2x32(dst, src []float32, n, rows, dn, sn int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// vecEnabled gates the AVX2 paths and rows64/rows32 hold the primitives it
// selects. They are set once at init (and flipped only by tests, before any
// kernels run concurrently).
var (
	vecEnabled bool
	rows64     rowOps[float64]
	rows32     rowOps[float32]
)

func init() { setVectorized(detectAVX2()) }

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// OS must manage YMM state (XCR0 bits 1 and 2).
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// Vectorized reports whether the matmul kernels are using the AVX2
// primitives.
func Vectorized() bool { return vecEnabled }

// setVectorized installs the AVX2 primitives or the pure-Go ones, and
// reports whether it could. Besides init it is a test hook: the conformance
// suite runs the kernels of both dtypes either way and asserts bit-equal
// output.
func setVectorized(on bool) bool {
	if on && !detectAVX2() {
		return false
	}
	vecEnabled = on
	rows64, rows32 = goRowOps[float64](), goRowOps[float32]()
	if on {
		rows64 = rowOps[float64]{axpy4x64, axpy1x64, tile4x64, gather2x64}
		rows32 = rowOps[float32]{axpy4x32, axpy1x32, tile4x32, gather2x32}
	}
	return true
}
