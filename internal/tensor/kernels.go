package tensor

import "unsafe"

// Matmul kernels, written once over the element type. Two loop nests serve
// the three products: mmAxpy (a×b and aᵀ×b, which differ only in how the
// a-coefficients are addressed) and mmBT (a×bᵀ). Each backend instantiates
// them over its storage slices and hands mmAxpy its dtype's row updates:
// AVX2 (simd_amd64.s) or pure Go.
//
// Determinism: every dst element of mmAxpy is accumulated in k-ascending
// groups of four with one rounding per multiply and per add, using the same
// left-associated expression in the AVX2 path, its scalar tail and the
// pure-Go fallback — no FMA anywhere. Tiling and partitioning only choose
// which elements a pass touches, never the order one element sees its k
// terms in, so results are bit-identical across worker counts, across the
// row and column partitions, and across the vectorized and scalar paths.

// rowOps is one dtype's pair of row updates, every b slice as long as dst:
//
//	axpy4: dst[j] = (((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
//	axpy1: dst[j] += a*b[j]
//
// rows64 and rows32 (simd_*.go) hold the AVX2 pair where the CPU has it and
// goRowOps elsewhere.
type rowOps[T number] struct {
	axpy4 func(dst, b0, b1, b2, b3 []T, a0, a1, a2, a3 T)
	axpy1 func(dst, b []T, a T)
}

// goRowOps is the pure-Go pair: the reference the assembly reproduces bit
// for bit, and all a host without AVX2 has.
func goRowOps[T number]() rowOps[T] { return rowOps[T]{axpy4Go[T], axpy1Go[T]} }

func axpy4Go[T number](dst, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) {
	// Reslicing is the bounds-check hint, and unlike indexing the last
	// element it is legal on an empty row.
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j, d := range dst {
		dst[j] = d + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func axpy1Go[T number](dst, b []T, a T) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += a * bv
	}
}

const (
	// mmKBlock is the k-panel depth: the panel of b touched per pass
	// (mmKBlock rows × one column tile, 1 MB at most) stays L2-resident
	// while every dst row in the worker's range streams over it. A multiple
	// of four, so the k-groups fall in the same places whatever the depth.
	mmKBlock = 256
	// mmTileBytes is the width of a column tile: one tile of the dst row
	// and of the four b rows a k-group reads fit L1 together. Measured on
	// the conv shapes and on 512³, two cores: 2 KB and 8 KB tiles come
	// within 10 % of 4 KB, 16 KB and 32 KB are 10–65 % slower.
	mmTileBytes = 4096
)

// tileCols is the column-tile width in elements of T.
func tileCols[T number]() int { return mmTileBytes / int(unsafe.Sizeof(T(0))) }

// mmAxpy computes dst = A×b (+ bias broadcast over rows) for an m×kk
// coefficient matrix A addressed through strides, A[i][k] = a[i*ai+k*ak]:
// a×b reads a row-major (ai=kk, ak=1), aᵀ×b reads it column-major (ai=1,
// ak=m). dst is m×n, b is kk×n.
//
// Four a-coefficients are applied per pass over a dst row, quartering the
// dst traffic of a plain axpy loop, and work is tiled over columns as well
// as k. When dst is wide enough to give every worker several column tiles
// — the wide-short products convolution makes, a dozen rows by N·spatial
// columns — workers split the columns, so each b tile is fetched once and
// reused by every dst row; otherwise they split the rows.
func mmAxpy[T number](ops rowOps[T], dst, a, b, bias []T, m, kk, n, ai, ak int) {
	work := 2 * m * kk * n
	tile := tileCols[T]()
	tiles := (n + tile - 1) / tile
	switch {
	case tiles >= 2*Parallelism() && !runsInline(tiles, work):
		Parallel(tiles, work, func(t0, t1 int) {
			mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, 0, m, t0*tile, min(t1*tile, n))
		})
	case !runsInline(m, work):
		Parallel(m, work, func(i0, i1 int) {
			mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, i0, i1, 0, n)
		})
	default:
		mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, 0, m, 0, n)
	}
}

// mmAxpyRange applies the kernel to dst rows [i0, i1), columns [j0, j1);
// dn and bn are the row strides of dst and b (apart in MatMulWindowInto).
func mmAxpyRange[T number](ops rowOps[T], dst, a, b, bias []T, kk, dn, bn, ai, ak, i0, i1, j0, j1 int) {
	tile := tileCols[T]()
	for jt := j0; jt < j1; jt += tile {
		je := min(jt+tile, j1)
		for i := i0; i < i1; i++ {
			drow := dst[i*dn+jt : i*dn+je]
			if bias == nil {
				clear(drow)
			} else {
				copy(drow, bias[jt:je])
			}
		}
		for k0 := 0; k0 < kk; k0 += mmKBlock {
			k1 := min(k0+mmKBlock, kk)
			kEnd := k0 + (k1-k0)&^3 // end of the last full group of four
			for i := i0; i < i1; i++ {
				drow := dst[i*dn+jt : i*dn+je]
				for k := k0; k < kEnd; k += 4 {
					ap := i*ai + k*ak
					a0, a1, a2, a3 := a[ap], a[ap+ak], a[ap+2*ak], a[ap+3*ak]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						// ReLU activations feed these kernels: whole-zero
						// groups are common enough to be worth skipping.
						continue
					}
					b0 := b[k*bn+jt : k*bn+je]
					b1 := b[(k+1)*bn+jt : (k+1)*bn+je]
					b2 := b[(k+2)*bn+jt : (k+2)*bn+je]
					b3 := b[(k+3)*bn+jt : (k+3)*bn+je]
					ops.axpy4(drow, b0, b1, b2, b3, a0, a1, a2, a3)
				}
				for k := kEnd; k < k1; k++ {
					if av := a[i*ai+k*ak]; av != 0 {
						ops.axpy1(drow, b[k*bn+jt:k*bn+je], av)
					}
				}
			}
		}
	}
}

// mmBT computes dst = a×bᵀ for a m×kk, b n×kk with a 2×2 register tile:
// two a rows against two b rows share every operand load across four
// independent accumulation chains. The dot shapes this kernel serves
// (gradient reductions over long k) have no row-major b panel to stream,
// so it stays scalar.
func mmBT[T number](dst, a, b []T, m, kk, n int) {
	work := 2 * m * kk * n
	if runsInline(m, work) {
		mmBTRange(dst, a, b, kk, n, 0, m)
		return
	}
	Parallel(m, work, func(i0, i1 int) {
		mmBTRange(dst, a, b, kk, n, i0, i1)
	})
}

// mmBTRange applies the a×bᵀ kernel to dst rows [i0, i1).
func mmBTRange[T number](dst, a, b []T, kk, n, i0, i1 int) {
	i := i0
	for ; i+1 < i1; i += 2 {
		ar0 := a[i*kk : i*kk+kk]
		ar1 := a[(i+1)*kk : (i+1)*kk+kk]
		dr0 := dst[i*n : i*n+n]
		dr1 := dst[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+1 < n; j += 2 {
			br0 := b[j*kk : j*kk+kk]
			br1 := b[(j+1)*kk : (j+1)*kk+kk]
			var s00, s01, s10, s11 T
			for k, a0 := range ar0 {
				a1 := ar1[k]
				b0 := br0[k]
				b1 := br1[k]
				s00 += a0 * b0
				s01 += a0 * b1
				s10 += a1 * b0
				s11 += a1 * b1
			}
			dr0[j] = s00
			dr0[j+1] = s01
			dr1[j] = s10
			dr1[j+1] = s11
		}
		if j < n {
			brow := b[j*kk : j*kk+kk]
			dr0[j] = dotSeq(ar0, brow)
			dr1[j] = dotSeq(ar1, brow)
		}
	}
	if i < i1 {
		arow := a[i*kk : i*kk+kk]
		drow := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			drow[j] = dotSeq(arow, b[j*kk:j*kk+kk])
		}
	}
}

// dotSeq is a single-chain inner product. The edge rows and columns of the
// 2×2 tile use it so every dst element is accumulated in the same k-order
// no matter how the worker pool partitions the rows — results must be
// bit-identical across parallelism levels.
func dotSeq[T number](a, b []T) T {
	var s T
	for k, av := range a {
		s += av * b[k]
	}
	return s
}
