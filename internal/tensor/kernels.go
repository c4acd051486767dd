package tensor

import "fmt"

// Matmul kernels. Two loop nests serve every product: product.run (a×b, aᵀ×b
// and the window-free convolution, which differ only in how the
// a-coefficients and the rows of b are addressed) and mmBT (a×bᵀ).
// product.run does its arithmetic through the installed rowOps: AVX2
// (simd_amd64.s) with the AVX-512F tile where the CPU has it
// (simd512_amd64.s), AVX2 alone, or pure Go.
//
// Determinism: every dst element of a product starts from zero or its start
// value and takes its terms a[i][k]*b[k][j] one at a time in ascending k,
// one rounding per multiply and one per add, never FMA; the finished sum
// then takes its row bias, one more add, and its activation — Σ, then +bias,
// then activation, wherever the three happen. The same left-associated sum
// in the register tile (AVX2 or AVX-512F), the AVX2 row updates, their
// scalar tails and the pure-Go fallback. The group of four is only the
// granularity at which terms are *skipped*: a k-aligned group whose four
// coefficients are all zero adds nothing, and neither does a zero
// coefficient among the k mod 4 trailing ones (a zero inside a live group
// is applied). Skipping is visible — it
// keeps an Inf or NaN in b out of the sum, and a −0 in it — so the tile,
// which applies every term, runs only where the rows would skip none: a
// block of dst rows in which any row has a skipped term in the current
// k-block falls back to rows, as does everything on a host without AVX2.
// The other two remainders stay in the tile, masked rather than handed to
// the rows: the m mod 4 rows under the last whole block run as a shorter
// block, and the last columns short of a whole column group (AVX2: 8
// elements, AVX-512F: 16) as a group with its dead lanes
// masked off — lanes and rows are independent, so neither changes what a
// live element sees. Where b's k-th row lies — k row strides into b, or at
// the k-th entry of a tap-offset table — decides which memory a term's
// factor is read from, not which term it is. Tiling and
// partitioning only choose which elements a pass touches, never the terms
// one element sees or their order, so results are bit-identical across
// worker counts, across the row and column partitions, and across the tile,
// the vectorized rows and the scalar rows.

// rowOps is a set of vector primitives, every b slice as long as dst:
//
//	axpy4: dst[j] = (((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
//	axpy1: dst[j] += a*b[j]
//	tile:  one k-block of a product, for the rows r < nr ≤ mmTileRows and the
//	       columns j < w (below)
//	split2: even[r*dn+i] = src[r*sn+2*i] for i < ne and odd[r*dn+i] =
//	       src[r*sn+2*i+1] for i < no, r < rows (see SplitPhases)
//	halve: dst[r*dn+i] = the clamped mean of a 2×2 block (see Halve)
//
// The tile works through its columns a group of two vectors at a time, the
// group's nr × 2 accumulators in registers for the whole k run:
//
//	acc[r][j] = dst[r*dn+j] — or, on a product's first k-block
//	            (mode&tileFirst), cb[j], or zero when cb is empty
//	acc[r][j] += a[r*ai+k*ak] * brow(k)[j], k ascending over [0, kn), where
//	            brow(k) is b[k*bn:], or b[boff[k]:] when boff is not empty
//	acc[r][j] += rb[r], when rb is not empty (a product's last k-block)
//	acc[r][j] = act(acc[r][j]), act the ActKind mode>>tileActShift
//	dst[r*dn+j] = acc[r][j]
//
// so dst is loaded at most once and stored once, and a row of b is read
// once for the nr dst rows. ops (simd_*.go) holds the set of the installed
// isa: the AVX2 set, its tile swapped for the AVX-512F one where
// the CPU has that, or goRowOps; tile, split2 and halve are nil there, and
// the loop nests then run rows, and plain loops, only.
type rowOps struct {
	axpy4  func(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
	axpy1  func(dst, b []float64, a float64)
	tile   func(dst []float64, dn int, a []float64, ai, ak int, b []float64, bn int, boff []int, kn, w, nr int, cb, rb []float64, mode int, alpha float64)
	split2 func(even, odd, src []float64, ne, no, rows, dn, sn int)
	halve  func(dst, src []float64, n, rows, dn, sn int)
}

// isa is an instruction-set level of the kernels, each a superset of the one
// before.
type isa int

const (
	isaGo     isa = iota // pure Go
	isaAVX2              // AVX2 row updates, tile, split and halving
	isaAVX512            // the AVX2 set with the AVX-512F register tile
)

const (
	tileFirst    = 1 // tile mode bit: the product's first k-block, dst is not loaded
	tileActShift = 1 // the rest of the mode is the ActKind applied before the store
)

// goRowOps is the pure-Go set: the reference the assembly reproduces bit
// for bit, and all a host without AVX2 has.
func goRowOps() rowOps { return rowOps{axpy4: axpy4Go, axpy1: axpy1Go} }

func axpy4Go(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	// Reslicing is the bounds-check hint, and unlike indexing the last
	// element it is legal on an empty row.
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j, d := range dst {
		dst[j] = d + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func axpy1Go(dst, b []float64, a float64) {
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
	// vectors of columns (32 bytes each in AVX2, 64 in AVX-512F), eight
	// accumulators.
	mmTileRows = 4
)

// tileCols is the column-tile width in elements.
const tileCols = mmTileBytes / 8

// ActKind names an activation the kernels apply to an element as its
// finished sum is stored, so the product's output needs no second pass.
type ActKind uint8

// The activations a product can end in. Both are blends on x < 0, false for
// a NaN and for −0, which therefore pass through unchanged.
const (
	ActNone      ActKind = iota
	ActReLU              // x < 0 → +0
	ActLeakyReLU         // x < 0 → x·Alpha
)

// Act is an ActKind with its parameter.
type Act struct {
	Kind  ActKind
	Alpha float64 // ActLeakyReLU's slope
}

// product is one pass's operands: dst = A×B for an m×kk coefficient matrix
// addressed through strides, A[i][k] = a[i*ai+k*ak] — a×b reads a row-major
// (ai=kk, ak=1), aᵀ×b column-major (ai=1, ak=m) — and a B whose k-th row
// starts at b[k*bn] or, with a tap-offset table, at b[taps[k]]: convolution
// lays a sample out so that every kernel tap is a contiguous run of it, and
// multiplies without ever building the kk × spatial window. The two edges of
// an element's sum ride in the pass that computes it: the sum of column j
// starts from start[j] (Dense's bias) instead of zero, and the finished sum
// of row i takes bias[i] (a convolution's channel bias) and then act.
type product struct {
	dst    []float64
	dn     int // row stride of dst
	a      []float64
	ai, ak int
	b      []float64
	bn     int
	taps   Taps // the zero Taps: B's rows are bn apart
	kk     int
	start  []float64 // nil: zero
	bias   []float64 // nil: none
	act    ActKind
	alpha  float64
}

// mmAxpy computes dst = A×b, m×n (+ bias broadcast over rows, then act),
// with A and b as in product. Work is tiled over columns as well as k. When
// dst is wide enough to give every worker several column tiles — a wide,
// short product, a dozen rows by thousands of columns — workers split the
// columns, so each b tile is fetched once and reused by every dst row;
// otherwise they split the rows, in whole register-tile blocks.
func mmAxpy(dst, a, b, bias []float64, m, kk, n, ai, ak int, act Act) {
	p := product{dst: dst, dn: n, a: a, ai: ai, ak: ak, b: b, bn: n, kk: kk, start: bias, act: act.Kind, alpha: act.Alpha}
	work := 2 * m * kk * n
	tiles := (n + tileCols - 1) / tileCols
	blocks := (m + mmTileRows - 1) / mmTileRows
	switch {
	case tiles >= 2*Parallelism() && !runsInline(tiles, work):
		q := p // the closure's own: p stays on the stack for the inline case
		Parallel(tiles, work, func(t0, t1 int) { q.run(0, m, t0*tileCols, min(t1*tileCols, n)) })
	case !runsInline(blocks, work):
		q := p
		Parallel(blocks, work, func(b0, b1 int) { q.run(b0*mmTileRows, min(b1*mmTileRows, m), 0, n) })
	default:
		p.run(0, m, 0, n)
	}
}

// run applies the kernel to dst rows [i0, i1), columns [j0, j1). Per column
// tile and k-block, rows go through the register tile a block of mmTileRows
// at a time (the last block may be shorter) — unless the row path would skip
// one of the block's terms, and then through the row updates. Either way a
// row's first k-block starts its sums and its last one finishes them.
func (p *product) run(i0, i1, j0, j1 int) {
	if i0 >= i1 || j0 >= j1 {
		return
	}
	// The assembly takes strides and offsets on trust: check the far corners
	// once.
	_ = p.dst[(i1-1)*p.dn+j1-1]
	if p.start != nil {
		_ = p.start[j1-1]
	}
	if p.bias != nil {
		_ = p.bias[i1-1]
	}
	if p.kk == 0 {
		for i := i0; i < i1; i++ {
			drow := p.dst[i*p.dn+j0 : i*p.dn+j1]
			p.begin(drow, j0)
			p.finish(drow, i)
		}
		return
	}
	_ = p.a[(i1-1)*p.ai+(p.kk-1)*p.ak]
	if p.taps.off != nil {
		_, _ = p.taps.off[p.kk-1], p.b[p.taps.end-1+j1-1]
	} else {
		_ = p.b[(p.kk-1)*p.bn+j1-1]
	}
	for jt := j0; jt < j1; jt += tileCols {
		je := min(jt+tileCols, j1)
		for k0 := 0; k0 < p.kk; k0 += mmKBlock {
			k1 := min(k0+mmKBlock, p.kk)
			first, last := k0 == 0, k1 == p.kk
			for i := i0; i < i1; i += mmTileRows {
				nr := min(mmTileRows, i1-i)
				if ops.tile != nil && !rowsSkipTerm(p.a, i*p.ai, p.ai, p.ak, nr, k0, k1) {
					p.tile(i, nr, jt, je, k0, k1)
					continue
				}
				for r := i; r < i+nr; r++ {
					drow := p.dst[r*p.dn+jt : r*p.dn+je]
					if first {
						p.begin(drow, jt)
					}
					p.row(drow, r*p.ai, jt, k0, k1)
					if last {
						p.finish(drow, r)
					}
				}
			}
		}
	}
}

// tile hands the register tile the k-block [k0, k1) of rows [i, i+nr),
// columns [jt, je), with the edges that fall in it.
func (p *product) tile(i, nr, jt, je, k0, k1 int) {
	b, boff := p.b[jt:], p.taps.off
	if boff != nil {
		boff = boff[k0:k1]
	} else {
		b = p.b[k0*p.bn+jt:]
	}
	var cb, rb []float64
	mode := 0
	if k0 == 0 {
		mode = tileFirst
		if p.start != nil {
			cb = p.start[jt:je]
		}
	}
	if k1 == p.kk {
		mode |= int(p.act) << tileActShift
		if p.bias != nil {
			rb = p.bias[i : i+nr]
		}
	}
	ops.tile(p.dst[i*p.dn+jt:], p.dn, p.a[i*p.ai+k0*p.ak:], p.ai, p.ak, b, p.bn, boff, k1-k0, je-jt, nr, cb, rb, mode, p.alpha)
}

// begin starts the sums of drow, columns [j, j+len(drow)) of a dst row.
func (p *product) begin(drow []float64, j int) {
	if p.start == nil {
		clear(drow)
	} else {
		copy(drow, p.start[j:])
	}
}

// finish is the pure-Go form of the tile's store: the finished sums of drow,
// part of dst row i, take the row's bias and then the activation.
func (p *product) finish(drow []float64, i int) {
	if p.bias != nil {
		bv := p.bias[i]
		for j := range drow {
			drow[j] += bv
		}
	}
	switch p.act {
	case ActReLU:
		for j, x := range drow {
			if x < 0 {
				drow[j] = 0
			}
		}
	case ActLeakyReLU:
		for j, x := range drow {
			if x < 0 {
				drow[j] = x * p.alpha
			}
		}
	}
}

// brow is columns [j, je) of B's k-th row.
func (p *product) brow(k, j, je int) []float64 {
	o := k * p.bn
	if p.taps.off != nil {
		o = p.taps.off[k]
	}
	return p.b[o+j : o+je]
}

// row is the row path: drow, columns [j, j+len(drow)) of one dst row, takes
// its k-block [k0, k1) terms four coefficients per pass — a quarter of the
// dst traffic of a plain axpy loop — then one at a time. ap is the index of
// the row's first coefficient.
func (p *product) row(drow []float64, ap, j, k0, k1 int) {
	a, ak := p.a, p.ak
	je := j + len(drow)
	kEnd := k0 + (k1-k0)&^3 // end of the last full group of four
	for k := k0; k < kEnd; k += 4 {
		q := ap + k*ak
		if zeroGroup(a, q, ak) {
			// ReLU activations feed these kernels: whole-zero
			// groups are common enough to be worth skipping.
			continue
		}
		ops.axpy4(drow, p.brow(k, j, je), p.brow(k+1, j, je), p.brow(k+2, j, je), p.brow(k+3, j, je),
			a[q], a[q+ak], a[q+2*ak], a[q+3*ak])
	}
	for k := kEnd; k < k1; k++ {
		if av := a[ap+k*ak]; av != 0 {
			ops.axpy1(drow, p.brow(k, j, je), av)
		}
	}
}

// zeroGroup reports whether the four coefficients a[p], a[p+ak], … are all
// zero: the group the row path skips and rowsSkipTerm looks for.
func zeroGroup(a []float64, p, ak int) bool {
	return a[p] == 0 && a[p+ak] == 0 && a[p+2*ak] == 0 && a[p+3*ak] == 0
}

// rowsSkipTerm reports whether the row path would skip a term of k-block
// [k0, k1) in any of the nr rows whose coefficients start at a[ap],
// a[ap+ai], …: the register tile applies every term, so it may only stand
// in for the rows where they skip none.
func rowsSkipTerm(a []float64, ap, ai, ak, nr, k0, k1 int) bool {
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

// Taps is a tap-offset table: where in a sample's phase planes each row of
// a convolution's B begins (see Kernels.MatMulTaps).
type Taps struct {
	off []int
	end int // 1 + the largest offset
}

// NewTaps wraps off, which it keeps.
func NewTaps(off []int) Taps {
	t := Taps{off: off}
	for _, o := range off {
		if o < 0 {
			panic("tensor: negative tap offset")
		}
		t.end = max(t.end, o+1)
	}
	return t
}

// Len returns the number of taps, the product's depth.
func (t Taps) Len() int { return len(t.off) }

// At returns where B's row k begins.
func (t Taps) At(k int) int { return t.off[k] }

// Kernels is the kernels on raw slices, for a caller that is already one
// shard of a parallel loop and works out of its own scratch (convolution, a
// sample at a time): every method stays on the calling goroutine. The zero
// value is ready to use; its methods run the primitives of the installed isa
// like the Mat entry points do.
type Kernels struct{}

// MatMulTaps is the window-free convolution product: for i < m and j < w,
//
//	dst[i*dn+j] = act(Σk a[i*kk+k]·b[taps[k]+j] + bias[i]),  kk = taps.Len()
//
// — the terms a×window would give element (i, j), in its ascending k, when
// row k of the window is the run of b that starts at tap k. The sum starts
// from zero, so dst is written without being read; bias may be nil.
func (Kernels) MatMulTaps(dst []float64, dn int, a []float64, m int, b []float64, taps Taps, w int, bias []float64, act Act) {
	kk := taps.Len()
	if len(a) < m*kk || (bias != nil && len(bias) < m) {
		panic("tensor: matmul-taps shape mismatch")
	}
	p := product{dst: dst, dn: dn, a: a, ai: kk, ak: 1, b: b, taps: taps, kk: kk, bias: bias, act: act.Kind, alpha: act.Alpha}
	p.run(0, m, 0, w)
}

// MatMulAT is MatMulATInto on raw slices: dst = aᵀ×b for a kk×m and b kk×n,
// both row-major, dst m×n. It is the same loop nest, whose skip and tile
// choices depend on a alone, so a product over some of b's columns gives
// each element the bits the whole product's column has.
func (Kernels) MatMulAT(dst, a []float64, m, kk int, b []float64, n int) {
	if len(a) < kk*m || len(b) < kk*n || len(dst) < m*n {
		panic("tensor: matmul-aT shape mismatch")
	}
	p := product{dst: dst, dn: n, a: a, ai: 1, ak: m, b: b, bn: n, kk: kk}
	p.run(0, m, 0, n)
}

// MatMulAcc is a product that may run over several calls: for i < m and
// j < w,
//
//	dst[i*dn+j] = s + Σk a[i*ai+k*ak]·b[k*bn+j],  k ascending over [0, kk)
//
// s zero when first is set and dst[i*dn+j] otherwise. It skips no term — a
// zero coefficient, or a group of four, is applied like any other, so an Inf
// or NaN behind it reaches the sum — and an element summed over a sequence
// of calls, the first with first set, is therefore one chain from +0 over
// every term in call order: the register tile where the host has it, rows
// one term at a time where not.
func (Kernels) MatMulAcc(dst []float64, dn int, a []float64, m, ai, ak int, b []float64, bn, kk, w int, first bool) {
	if m <= 0 || w <= 0 {
		return
	}
	// The assembly takes strides on trust: check the far corners once.
	_ = dst[(m-1)*dn+w-1]
	if kk > 0 {
		_, _ = a[(m-1)*ai+(kk-1)*ak], b[(kk-1)*bn+w-1]
	}
	mode := 0
	if first {
		mode = tileFirst
	}
	for i := 0; i < m; i += mmTileRows {
		nr := min(mmTileRows, m-i)
		if ops.tile != nil && kk > 0 {
			ops.tile(dst[i*dn:], dn, a[i*ai:], ai, ak, b, bn, nil, kk, w, nr, nil, nil, mode, 0)
			continue
		}
		for r := i; r < i+nr; r++ {
			drow := dst[r*dn : r*dn+w]
			if first {
				clear(drow)
			}
			for q := 0; q < kk; q++ {
				ops.axpy1(drow, b[q*bn:], a[r*ai+q*ak])
			}
		}
	}
}

// SplitPhases de-interleaves rows strided runs into two phase planes: for
// r < rows,
//
//	even[r*dn+i] = src[r*sn+2*i]    for i < ne
//	odd[r*dn+i]  = src[r*sn+2*i+1]  for i < no, no = ne or ne−1
//
// — both column phases of a stride-2 convolution's input row, from one pass
// over the row, AVX2 where the CPU has it. A run is the ne+no elements from
// src[r*sn]; nothing past its last is read, so a run may end flush against
// the end of its array. With no = 0 odd is not touched.
func (Kernels) SplitPhases(even, odd, src []float64, ne, no, rows, dn, sn int) {
	if ne <= 0 || rows <= 0 {
		return
	}
	if no != ne && no != ne-1 {
		panic(fmt.Sprintf("tensor: split of %d even and %d odd elements", ne, no))
	}
	// The bounds the assembly relies on, checked once for the rectangle.
	_, _ = even[(rows-1)*dn+ne-1], src[(rows-1)*sn+ne+no-1]
	if no > 0 {
		_ = odd[(rows-1)*dn+no-1]
	}
	if ops.split2 != nil {
		ops.split2(even, odd, src, ne, no, rows, dn, sn)
		return
	}
	for r := 0; r < rows; r++ {
		run := src[r*sn : r*sn+ne+no]
		for i := 0; i < ne; i++ {
			even[r*dn+i] = run[2*i]
		}
		for i := 0; i < no; i++ {
			odd[r*dn+i] = run[2*i+1]
		}
	}
}

// Halve is the 2×2 halving of rows pairs of strided source rows: for
// r < rows and i < n, with a, b = src[2r·sn + 2i], src[2r·sn + 2i + 1] and
// c, d the same two of the row below, src[(2r+1)·sn + …],
//
//	dst[r*dn+i] = clamp01(((((+0 + a) + b) + c) + d) · ¼)
//
// AVX2 where the CPU has it. The sum starts from +0, so a block of four −0
// halves to +0; clamp01 sends a value below 0 to +0 and one above 1 to 1
// and passes everything else through, NaN and −0 included. Nothing past a
// row's last element src[…+2n−1] is read.
func (Kernels) Halve(dst, src []float64, n, rows, dn, sn int) {
	if n <= 0 || rows <= 0 {
		return
	}
	// The bounds the assembly relies on, checked once for the rectangle.
	_, _ = dst[(rows-1)*dn+n-1], src[(2*rows-1)*sn+2*n-1]
	if ops.halve != nil {
		ops.halve(dst, src, n, rows, dn, sn)
		return
	}
	for r := 0; r < rows; r++ {
		r0, r1 := src[2*r*sn:2*r*sn+2*n], src[(2*r+1)*sn:(2*r+1)*sn+2*n]
		for i := range dst[r*dn : r*dn+n] {
			var s float64
			s += r0[2*i]
			s += r0[2*i+1]
			s += r1[2*i]
			s += r1[2*i+1]
			dst[r*dn+i] = clamp01(s * 0.25)
		}
	}
}

// clamp01 is the halving's clamp: below 0 to +0, above 1 to 1, anything
// else — NaN and −0 among it — unchanged.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// mmBT computes dst = a×bᵀ for a m×kk, b n×kk with a 2×2 register tile:
// two a rows against two b rows share every operand load across four
// independent accumulation chains. The dot shapes this kernel serves
// (gradient reductions over long k) have no row-major b panel to stream,
// so it stays scalar.
func mmBT(dst, a, b []float64, m, kk, n int) {
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
func mmBTRange(dst, a, b []float64, kk, n, i0, i1 int) {
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
			var s00, s01, s10, s11 float64
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
func dotSeq(a, b []float64) float64 {
	var s float64
	for k, av := range a {
		s += av * b[k]
	}
	return s
}
