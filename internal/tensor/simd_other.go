//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go row updates, and the plain loops of
// Kernels.SplitPhases and Kernels.Halve; the scalar expressions accumulate
// in the same order as the AVX2 and AVX-512F paths, so results are portable
// bit for bit wherever the platform's scalar float ops are IEEE-exact.

var (
	hostISA = isaGo
	ops     = goRowOps()
)

func setISA(l isa) bool { return l == isaGo }
