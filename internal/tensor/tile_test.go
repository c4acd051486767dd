package tensor

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/guardpage"
)

// The register tile's conformance: whatever mix of tile and row updates the
// loop nest picks, and on whichever rows, the output bits are those of the
// pure-Go rows. Every test here runs the kernels four ways — the AVX-512F
// tile, the AVX2 tile, AVX2 rows only, pure Go — and requires all of them
// bit-equal.

// kernelPathList is the ways kernelPaths runs the kernels, pure Go last.
var kernelPathList = []struct {
	name  string
	level isa
	tile  bool
}{
	{"zmm tile", isaAVX512, true},
	{"avx2 tile", isaAVX2, true},
	{"avx2 rows", isaAVX2, false},
	{"go", isaGo, false},
}

// kernelPaths runs fn once per kernel path the host has and returns what it
// produced, pure Go last. Skips the test where there is no AVX2 to compare.
func kernelPaths(t *testing.T, fn func() []*Mat) (names []string, outs [][]*Mat) {
	t.Helper()
	if hostISA < isaAVX2 {
		t.Skip("SIMD unsupported on this platform")
	}
	defer setISA(hostISA)
	for _, p := range kernelPathList {
		if !setISA(p.level) {
			continue
		}
		if !p.tile {
			ops.tile = nil
		}
		names = append(names, p.name)
		outs = append(outs, fn())
	}
	return names, outs
}

// guarded hands out matrices whose storage ends flush against a guard page
// (see package guardpage); free unmaps them all, once per case — a mapping
// apiece adds up to the kernel's limit over a whole table.
type guarded struct{ frees []func() }

// mat returns an r×c matrix filled from rng.
func (g *guarded) mat(r, c int, rng *RNG) *Mat {
	out := &Mat{R: r, C: c}
	var free func()
	out.V, free = guardpage.Alloc(r * c)
	g.frees = append(g.frees, free)
	rng.FillNormal(out, 1)
	return out
}

func (g *guarded) free() {
	for _, f := range g.frees {
		f()
	}
	g.frees = nil
}

// tileProducts runs every entry point that reaches product.run — a×b, a×b +
// bias, aᵀ×b (the strided coefficient walk) and its raw-slice form
// Kernels.MatMulAT on the calling goroutine — and checks on the way that the
// raw form matches the matrix one. Every operand and result ends at a guard
// page, so a tile that reads or writes past a row's last column faults.
func tileProducts(t *testing.T, g *guarded, a, b, bias *Mat, seed uint64) []*Mat {
	m, n := a.R, b.C
	rng := NewRNG(seed)
	out := []*Mat{g.mat(m, n, rng), g.mat(m, n, rng), g.mat(m, n, rng), g.mat(m, n, rng)}
	MatMulInto(out[0], a, b)
	MatMulBiasInto(out[1], a, b, bias)
	at := g.mat(a.C, m, rng)
	copy(at.V, a.Transpose().V)
	MatMulATInto(out[2], at, b)
	Kernels{}.MatMulAT(out[3].V, at.V, m, a.C, b.V, n)
	if !bitsEqual(out[3], out[2]) {
		t.Fatalf("%dx%dx%d: Kernels.MatMulAT differs from MatMulATInto", m, a.C, n)
	}
	return out
}

var tileProductNames = []string{"matmul", "matmulBias", "matmulAT", "kernelsAT"}

func requireSameBits(t *testing.T, names []string, outs [][]*Mat, format string, args ...any) {
	t.Helper()
	for p := 1; p < len(outs); p++ {
		for i := range outs[0] {
			if !bitsEqual(outs[0][i], outs[p][i]) {
				t.Errorf("%s %s: %s and %s paths disagree bitwise", fmt.Sprintf(format, args...), tileProductNames[i], names[0], names[p])
			}
		}
	}
}

// TestVectorizedScalarBitIdentityShapes walks the tile's edges: every row
// count through two blocks and the serving layers' 10 and 14, k depths on
// both sides of the k-block seam, widths with and without a partial column
// group, and a skipped term — a whole-zero group, or a zero tail coefficient
// — planted in each row position of every block, with an Inf and a NaN in
// the b rows behind it: a tile that ran over a block it should have left to
// the rows turns those into NaNs the rows never see.
func TestVectorizedScalarBitIdentityShapes(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14} {
		for _, kk := range []int{11, mmKBlock - 1, mmKBlock, mmKBlock + 1, mmKBlock + 4} {
			for _, n := range []int{1, 7, 8, 9, 16, 17, 33, 84} {
				for zpos := -1; zpos < mmTileRows; zpos++ { // -1: no skipped term anywhere
					rng := NewRNG(uint64(m*1000 + kk*10 + n))
					var g guarded
					a, b, bias := g.mat(m, kk, rng), g.mat(kk, n, rng), g.mat(1, n, rng)
					for i := zpos; zpos >= 0 && i < m; i += mmTileRows {
						k0 := 4 * ((i / mmTileRows) % (kk / 4)) // a different group per block
						for k := k0; k < k0+4; k++ {
							a.Set(i, k, 0)
						}
						b.Set(k0+1, (i*5)%n, math.Inf(1))
						b.Set(k0+2, (i*3+1)%n, math.NaN())
						if kk%4 != 0 {
							a.Set(i, kk-1, 0) // and one in the tail
							b.Set(kk-1, (i*7+2)%n, math.Inf(-1))
						}
					}
					names, outs := kernelPaths(t, func() []*Mat { return tileProducts(t, &g, a, b, bias, 99) })
					requireSameBits(t, names, outs, "%dx%dx%d zero group in row %d of each block:", m, kk, n, zpos)
					g.free()
				}
			}
		}
	}
}

// TestVectorizedScalarBitIdentityRandom is the seeded differential test:
// a few hundred random shapes and sparsities, specials sprinkled
// into b so that a term applied where the rows skip it cannot hide.
func TestVectorizedScalarBitIdentityRandom(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e-42}
	rng := NewRNG(2024)
	for c := 0; c < 300; c++ {
		m := 1 + int(rng.Uint64()%19)
		kk := 1 + int(rng.Uint64()%40)
		if c%5 == 0 {
			kk = mmKBlock - 8 + int(rng.Uint64()%40) // straddle the seam
		}
		n := 1 + int(rng.Uint64()%70)
		var g guarded
		a, b, bias := g.mat(m, kk, rng), g.mat(kk, n, rng), g.mat(1, n, rng)
		// Zeros by the run, so whole groups vanish: none, a third, most.
		density := []float64{0, 0.3, 0.9}[c%3]
		for i := 0; i < a.Len(); {
			run := 1 + int(rng.Uint64()%6)
			if rng.Float64() < density {
				for j := i; j < min(i+run, a.Len()); j++ {
					a.V[j] = 0
				}
			}
			i += run
		}
		for s := 0; s < c%4; s++ {
			i := rng.Uint64() % uint64(b.Len())
			b.V[i] = specials[rng.Uint64()%uint64(len(specials))]
		}
		names, outs := kernelPaths(t, func() []*Mat { return tileProducts(t, &g, a, b, bias, uint64(c)) })
		requireSameBits(t, names, outs, "case %d %dx%dx%d density %.1f:", c, m, kk, n, density)
		g.free()
	}
}
