package tensor

import "unsafe"

// Matmul kernels, written once over the element type. Two loop nests serve
// the three products: mmAxpy (a×b and aᵀ×b, which differ only in how the
// a-coefficients are addressed) and mmBT (a×bᵀ). Each backend instantiates
// them over its storage slices and hands mmAxpy its dtype's rowOps: AVX2
// (simd_amd64.s) or pure Go.
//
// Determinism: every dst element of mmAxpy starts from zero or its bias and
// takes its terms a[i][k]*b[k][j] one at a time in ascending k, one rounding
// per multiply and one per add, never FMA — the same left-associated sum in
// the register tile, the AVX2 row updates, their scalar tails and the pure-Go
// fallback. The group of four is only the granularity at which terms are
// *skipped*: a k-aligned group whose four coefficients are all zero adds
// nothing, and neither does a zero coefficient among the k mod 4 trailing
// ones (a zero inside a live group is applied). Skipping is visible — it
// keeps an Inf or NaN in b out of the sum, and a −0 in it — so the tile,
// which applies every term, runs only where the rows would skip none: a
// block of dst rows in which any row has a skipped term in the current
// k-block falls back to rows, as does everything on a host without AVX2.
// The other two remainders stay in the tile, masked rather than handed to
// the rows: the m mod 4 rows under the last whole block run as a shorter
// block, and the last w mod 8 (float32: 16) columns as a column group with
// its dead lanes masked off — lanes and rows are independent, so neither
// changes what a live element sees. Tiling and partitioning only choose
// which elements a pass touches, never the terms one element sees or their
// order, so results are bit-identical across worker counts, across the row
// and column partitions, and across the tile, the vectorized rows and the
// scalar rows.

// rowOps is one dtype's vector primitives, every b slice as long as dst:
//
//	axpy4: dst[j] = (((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
//	axpy1: dst[j] += a*b[j]
//	tile:  dst[r*dn+j] += Σk a[r*ai+k*ak] * b[k*bn+j], k ascending over [0, kn),
//	       for the rows r < nr ≤ mmTileRows and the columns j < w
//	gather2: dst[r*dn+i] = src[r*sn+2*i] for i < n, r < rows (see Gather2)
//
// The tile works through its columns a group of two vectors at a time, the
// group's nr × 2 accumulators in registers for the whole k run: dst is
// loaded and stored once, and a row of b is read once for the nr dst rows.
// rows64 and rows32 (simd_*.go) hold the AVX2 set where the CPU has it and
// goRowOps elsewhere; tile and gather2 are nil there, and the loop nests
// then run rows, and plain loops, only.
type rowOps[T number] struct {
	axpy4   func(dst, b0, b1, b2, b3 []T, a0, a1, a2, a3 T)
	axpy1   func(dst, b []T, a T)
	tile    func(dst []T, dn int, a []T, ai, ak int, b []T, bn, kn, w, nr int)
	gather2 func(dst, src []T, n, rows, dn, sn int)
}

// goRowOps is the pure-Go set: the reference the assembly reproduces bit
// for bit, and all a host without AVX2 has.
func goRowOps[T number]() rowOps[T] { return rowOps[T]{axpy4: axpy4Go[T], axpy1: axpy1Go[T]} }

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
	// of four, so the skip groups fall in the same places whatever the depth.
	mmKBlock = 256
	// mmTileBytes is the width of a column tile: the k-panel of b under it
	// (up to mmKBlock rows of it) is what every row block re-reads, and has
	// to stay in L2. Re-measured with the register tile in place, on the
	// conv shapes and 512³, two cores: 2 KB is within 7 % of 4 KB either
	// way, 8 KB level to 17 % slower, 16 KB and 32 KB up to 65 % slower
	// (14×90×4096 float64; 512³ moves by under 6 % at any width).
	mmTileBytes = 4096
	// mmTileRows is the height of the register tile: four dst rows by two
	// 32-byte vectors of columns, eight accumulators.
	mmTileRows = 4
)

// tileCols is the column-tile width in elements of T.
func tileCols[T number]() int { return mmTileBytes / int(unsafe.Sizeof(T(0))) }

// mmAxpy computes dst = A×b (+ bias broadcast over rows) for an m×kk
// coefficient matrix A addressed through strides, A[i][k] = a[i*ai+k*ak]:
// a×b reads a row-major (ai=kk, ak=1), aᵀ×b reads it column-major (ai=1,
// ak=m). dst is m×n, b is kk×n.
//
// Work is tiled over columns as well as k. When dst is wide enough to give
// every worker several column tiles — the wide-short products convolution
// makes, a dozen rows by N·spatial columns — workers split the columns, so
// each b tile is fetched once and reused by every dst row; otherwise they
// split the rows, in whole register-tile blocks.
func mmAxpy[T number](ops rowOps[T], dst, a, b, bias []T, m, kk, n, ai, ak int) {
	work := 2 * m * kk * n
	tile := tileCols[T]()
	tiles := (n + tile - 1) / tile
	blocks := (m + mmTileRows - 1) / mmTileRows
	switch {
	case tiles >= 2*Parallelism() && !runsInline(tiles, work):
		Parallel(tiles, work, func(t0, t1 int) {
			mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, 0, m, t0*tile, min(t1*tile, n))
		})
	case !runsInline(blocks, work):
		Parallel(blocks, work, func(b0, b1 int) {
			mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, b0*mmTileRows, min(b1*mmTileRows, m), 0, n)
		})
	default:
		mmAxpyRange(ops, dst, a, b, bias, kk, n, n, ai, ak, 0, m, 0, n)
	}
}

// mmAxpyRange applies the kernel to dst rows [i0, i1), columns [j0, j1);
// dn and bn are the row strides of dst and b (apart in MatMulWindowInto).
// Per column tile and k-block, rows go through the register tile a block of
// mmTileRows at a time (the last block may be shorter) — unless the row path
// would skip one of the block's terms, and then through the row updates.
func mmAxpyRange[T number](ops rowOps[T], dst, a, b, bias []T, kk, dn, bn, ai, ak, i0, i1, j0, j1 int) {
	if i0 >= i1 || j0 >= j1 {
		return
	}
	if kk > 0 {
		// The assembly takes strides on trust: check the far corners once.
		_, _, _ = dst[(i1-1)*dn+j1-1], a[(i1-1)*ai+(kk-1)*ak], b[(kk-1)*bn+j1-1]
	}
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
			for i := i0; i < i1; i += mmTileRows {
				nr := min(mmTileRows, i1-i)
				if ops.tile != nil && !rowsSkipTerm(a, i*ai, ai, ak, nr, k0, k1) {
					ops.tile(dst[i*dn+jt:], dn, a[i*ai+k0*ak:], ai, ak, b[k0*bn+jt:], bn, k1-k0, je-jt, nr)
					continue
				}
				for r := i; r < i+nr; r++ {
					mmRow(ops, dst[r*dn+jt:r*dn+je], a, b, r*ai, ak, bn, jt, k0, k1)
				}
			}
		}
	}
}

// mmRow is the row path: drow, columns [j, j+len(drow)) of one dst row,
// takes its k-block [k0, k1) terms four coefficients per pass — a quarter
// of the dst traffic of a plain axpy loop — then one at a time. ap is the
// index of the row's first coefficient.
func mmRow[T number](ops rowOps[T], drow, a, b []T, ap, ak, bn, j, k0, k1 int) {
	je := j + len(drow)
	kEnd := k0 + (k1-k0)&^3 // end of the last full group of four
	for k := k0; k < kEnd; k += 4 {
		p := ap + k*ak
		if zeroGroup(a, p, ak) {
			// ReLU activations feed these kernels: whole-zero
			// groups are common enough to be worth skipping.
			continue
		}
		a0, a1, a2, a3 := a[p], a[p+ak], a[p+2*ak], a[p+3*ak]
		b0 := b[k*bn+j : k*bn+je]
		b1 := b[(k+1)*bn+j : (k+1)*bn+je]
		b2 := b[(k+2)*bn+j : (k+2)*bn+je]
		b3 := b[(k+3)*bn+j : (k+3)*bn+je]
		ops.axpy4(drow, b0, b1, b2, b3, a0, a1, a2, a3)
	}
	for k := kEnd; k < k1; k++ {
		if av := a[ap+k*ak]; av != 0 {
			ops.axpy1(drow, b[k*bn+j:k*bn+je], av)
		}
	}
}

// zeroGroup reports whether the four coefficients a[p], a[p+ak], … are all
// zero: the group mmRow skips and rowsSkipTerm looks for.
func zeroGroup[T number](a []T, p, ak int) bool {
	return a[p] == 0 && a[p+ak] == 0 && a[p+2*ak] == 0 && a[p+3*ak] == 0
}

// rowsSkipTerm reports whether mmRow would skip a term of k-block [k0, k1)
// in any of the nr rows whose coefficients start at a[ap], a[ap+ai], …: the
// register tile applies every term, so it may only stand in for the rows
// where they skip none.
func rowsSkipTerm[T number](a []T, ap, ai, ak, nr, k0, k1 int) bool {
	kEnd := k0 + (k1-k0)&^3
	for r := 0; r < nr; r, ap = r+1, ap+ai {
		for k := k0; k < kEnd; k += 4 {
			if zeroGroup(a, ap+k*ak, ak) {
				return true
			}
		}
		for k := kEnd; k < k1; k++ {
			if a[ap+k*ak] == 0 {
				return true
			}
		}
	}
	return false
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

// Gather2 copies every second element of each of rows strided runs:
// dst[r*dn+i] = src[r*sn+2*i] for i < n and r < rows — the stride-2 unroll
// of a convolution tap, AVX2 where the CPU has it. Nothing past a run's last
// source element src[r*sn+2*(n-1)] is read, so a run may end flush against
// the end of its array.
func Gather2[T number](dst, src []T, n, rows, dn, sn int) {
	if n <= 0 || rows <= 0 {
		return
	}
	// The bounds the assembly relies on, checked once for the rectangle.
	_, _ = dst[(rows-1)*dn+n-1], src[(rows-1)*sn+2*(n-1)]
	switch d := any(dst).(type) {
	case []float64:
		if rows64.gather2 != nil {
			rows64.gather2(d, any(src).([]float64), n, rows, dn, sn)
			return
		}
	case []float32:
		if rows32.gather2 != nil {
			rows32.gather2(d, any(src).([]float32), n, rows, dn, sn)
			return
		}
	}
	for r := 0; r < rows; r++ {
		in, run := dst[r*dn:r*dn+n], src[r*sn:r*sn+2*n-1]
		for i := range in {
			in[i] = run[2*i]
		}
	}
}
