//go:build amd64

package tensor

// The row updates, register tile and stride-2 gather dispatch to AVX2 when
// the CPU supports it, and the register tile to AVX-512F when the
// CPU has that too (simd512_amd64.s). The assembly mirrors the scalar
// accumulation order exactly (see simd_amd64.s), so the instruction-set
// level never changes a single output bit — it only changes how many
// elements retire per cycle.

//go:noescape
func axpy4x64(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1x64(dst, b []float64, a float64)

//go:noescape
func tile4x64(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)

//go:noescape
func tile4x64z(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)

//go:noescape
func gather2x64(dst, src []float64, n, rows, dn, sn int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// hostISA is the highest level this CPU and OS support; ops holds the
// primitives of the installed level. They are set once at init (and changed
// only by tests, before any kernels run concurrently).
var (
	hostISA = detectISA()
	ops     rowOps
)

func init() { setISA(hostISA) }

func detectISA() isa {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return isaGo
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return isaGo
	}
	xcr0, _ := xgetbv0()
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	switch {
	case xcr0&6 != 6 || ebx7&avx2 == 0: // the OS must manage YMM state (XCR0 bits 1 and 2)
		return isaGo
	case avx512Usable(ebx7, xcr0):
		return isaAVX512
	}
	return isaAVX2
}

// avx512Usable reports whether CPUID.(7,0).EBX and XCR0 allow the AVX-512F
// tile: the F bit (16), and an OS that saves SSE, YMM, opmask and both
// halves of the ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
func avx512Usable(ebx7, xcr0 uint32) bool {
	const avx512f = 1 << 16
	return ebx7&avx512f != 0 && xcr0&0xe6 == 0xe6
}

// setISA installs the primitives of level l and reports whether it could:
// not above what the host supports. Besides init it is a test hook: the
// conformance suite runs the kernels at every level and asserts bit-equal
// output.
func setISA(l isa) bool {
	if l > hostISA {
		return false
	}
	ops = goRowOps()
	if l >= isaAVX2 {
		ops = rowOps{axpy4x64, axpy1x64, tile4x64, gather2x64}
	}
	if l >= isaAVX512 {
		ops.tile = tile4x64z
	}
	return true
}
