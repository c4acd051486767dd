package tensor

import (
	"math"
	"testing"

	"odin/internal/guardpage"
)

// Conformance of what the window-free convolution added to the loop nest:
// b's rows found through a tap-offset table, and the two ends of a sum — its
// start, its row bias and activation — done inside the pass. As in
// tile_test.go everything runs every way (kernelPaths: zmm tile, AVX2 tile,
// AVX2 rows, pure Go) and must agree bit for bit; here it must also agree
// with refProduct, the definition written out one element at a time.

// kernelSpecials are planted in every operand. The NaN is the one the
// hardware makes (Inf−Inf, Inf·0): where two different NaNs meet in an add or
// a product x86 keeps the first operand's, and which operand is first in the
// pure-Go path is the compiler's choice (it folds the dst load into the add)
// — with one NaN in flight the choice cannot show, and everything else can.
var kernelSpecials = []float64{math.Float64frombits(0xFFF8000000000000), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -3e-310, 1e-42}

// refProduct is the contract of kernels.go for one element, in plain Go:
// from start, the terms in ascending k, each product and each sum rounded
// once; a k-aligned group of four zero coefficients skipped whole, and a
// zero coefficient among the kk mod 4 trailing ones; then the row bias; then
// the activation. brow(k) is the element's factor in b's k-th row.
func refProduct(start float64, a []float64, brow func(k int) float64, bias *float64, act Act) float64 {
	s := start
	kk := len(a)
	for k := 0; k+4 <= kk; k += 4 {
		if a[k] == 0 && a[k+1] == 0 && a[k+2] == 0 && a[k+3] == 0 {
			continue
		}
		for q := k; q < k+4; q++ {
			s = float64(s + float64(a[q]*brow(q)))
		}
	}
	for k := kk &^ 3; k < kk; k++ {
		if a[k] != 0 {
			s = float64(s + float64(a[k]*brow(k)))
		}
	}
	if bias != nil {
		s = float64(s + *bias)
	}
	switch {
	case act.Kind == ActReLU && s < 0:
		s = 0
	case act.Kind == ActLeakyReLU && s < 0:
		s = float64(s * act.Alpha)
	}
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// plantZeroGroups zeroes runs of a's coefficients — whole groups of four in
// some rows, single ones in others — and puts specials into a few more.
func plantZeroGroups(a []float64, m, kk int, rng *RNG) {
	for i := 0; i < m; i++ {
		switch i % 3 {
		case 1: // a zero group and a zero in the tail: the tile must leave this block to the rows
			if kk >= 4 {
				k0 := 4 * int(rng.Uint64()%uint64(kk/4))
				clear(a[i*kk+k0 : i*kk+k0+4])
			}
			a[i*kk+kk-1] = 0
		case 2: // zeros inside live groups are applied like any coefficient
			for k := 0; k < kk; k += 3 {
				a[i*kk+k] = math.Copysign(0, -1)
			}
		}
	}
	for s := 0; s < 3; s++ {
		a[int(rng.Uint64()%uint64(len(a)))] = kernelSpecials[int(rng.Uint64()%uint64(len(kernelSpecials)))]
	}
}

// tapsCase runs MatMulTaps every way on guarded operands and checks every
// element against refProduct. The taps overlap the way a convolution's do:
// neighbouring rows of b start an element or a short row apart, and the
// last one ends flush against the guard page.
func tapsCase(t *testing.T, m, kk, w int, withBias bool, act Act, seed uint64) {
	t.Helper()
	rng := NewRNG(seed)
	off := make([]int, kk)
	for k := range off {
		off[k] = int(rng.Uint64() % uint64(3*w+kk))
	}
	off[int(rng.Uint64()%uint64(kk))] = 3*w + kk // the far end: b holds this tap's run and not one element more
	taps := NewTaps(off)
	dn := w + int(seed%4) // dst rows may be wider than the product
	var frees []func()
	alloc := func(n int) []float64 {
		s, free := guardpage.Alloc(n)
		frees = append(frees, free)
		for i := range s {
			s[i] = rng.Norm()
		}
		return s
	}
	defer func() {
		for _, f := range frees {
			f()
		}
	}()
	a, b := alloc(m*kk), alloc(3*w+kk+w)
	plantZeroGroups(a, m, kk, rng)
	for s := 0; s < 4; s++ {
		b[int(rng.Uint64()%uint64(len(b)))] = kernelSpecials[int(rng.Uint64()%uint64(len(kernelSpecials)))]
	}
	var bias []float64
	if withBias {
		bias = alloc(m)
		bias[int(rng.Uint64()%uint64(m))] = kernelSpecials[int(seed%uint64(len(kernelSpecials)))]
	}
	var outs [][]float64
	names, _ := kernelPaths(t, func() []*Mat {
		dst := alloc((m-1)*dn + w)
		Kernels{}.MatMulTaps(dst, dn, a, m, b, taps, w, bias, act)
		outs = append(outs, dst)
		return nil
	})
	for i := 0; i < m; i++ {
		for j := 0; j < w; j++ {
			var bp *float64
			if withBias {
				bp = &bias[i]
			}
			want := refProduct(0, a[i*kk:(i+1)*kk], func(k int) float64 { return b[off[k]+j] }, bp, act)
			for p, dst := range outs {
				if got := dst[i*dn+j]; !sameBits(got, want) {
					t.Fatalf("%dx%dx%d bias=%v act=%v seed %d: %s path has %v (%x) at (%d,%d), the definition gives %v (%x)", m, kk, w, withBias, act.Kind, seed, names[p], got, math.Float64bits(got), i, j, want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestVectorizedScalarBitIdentityTaps walks the table-addressed product over
// the row counts of one and two register blocks and the serving layers, k
// depths on both sides of the k-block seam, widths with and without a
// partial column group, with and without the row bias and each activation.
func TestVectorizedScalarBitIdentityTaps(t *testing.T) {
	acts := []Act{{}, {Kind: ActReLU}, {Kind: ActLeakyReLU, Alpha: 0.1}}
	seed := uint64(0)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 10, 14} {
		for _, kk := range []int{1, 3, 9, 27, 90, mmKBlock - 1, mmKBlock, mmKBlock + 1, mmKBlock + 6} {
			for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 90} {
				seed++
				withBias, act := seed%2 == 0, acts[seed%3]
				tapsCase(t, m, kk, w, withBias, act, seed)
			}
		}
	}
}

// edgesCase runs the Dense product — a sum that starts from its column's
// bias and ends in the activation — every way and against the definition.
func edgesCase(t *testing.T, m, kk, n int, act Act, seed uint64) {
	t.Helper()
	rng := NewRNG(seed)
	var g guarded
	defer g.free()
	a, b, bias := g.mat(m, kk, rng), g.mat(kk, n, rng), g.mat(1, n, rng)
	plantZeroGroups(a.V, m, kk, rng)
	for s := 0; s < 3; s++ {
		i := rng.Uint64() % uint64(b.Len())
		b.V[i] = kernelSpecials[rng.Uint64()%uint64(len(kernelSpecials))]
		i = rng.Uint64() % uint64(n)
		bias.V[i] = kernelSpecials[rng.Uint64()%uint64(len(kernelSpecials))]
	}
	names, outs := kernelPaths(t, func() []*Mat {
		dst := g.mat(m, n, rng)
		MatMulBiasActInto(dst, a, b, bias, act)
		return []*Mat{dst}
	})
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := refProduct(bias.V[j], a.V[i*kk:(i+1)*kk], func(k int) float64 { return b.V[k*n+j] }, nil, act)
			for p := range outs {
				if got := outs[p][0].At(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%dx%d act=%v seed %d: %s path has %v at (%d,%d), the definition gives %v", m, kk, n, act.Kind, seed, names[p], got, i, j, want)
				}
			}
		}
	}
}

// TestVectorizedScalarBitIdentityEdges pins the tile's two edges on the
// Dense shapes: the bias start against copy(bias), the fused activation
// against a separate pass, for k depths inside one k-block, at its seam and
// over four of them (the DA-GAN encoder's 936), block heights one to four
// and beyond, widths through two column groups.
func TestVectorizedScalarBitIdentityEdges(t *testing.T) {
	acts := []Act{{}, {Kind: ActReLU}, {Kind: ActLeakyReLU, Alpha: 0.2}}
	seed := uint64(1000)
	for _, m := range []int{1, 2, 3, 4, 5, 8} {
		for _, kk := range []int{7, mmKBlock - 1, mmKBlock, mmKBlock + 1, 936} {
			for n := 1; n <= 17; n++ {
				seed++
				edgesCase(t, m, kk, n, acts[seed%3], seed)
			}
		}
	}
}

// TestVectorizedScalarBitIdentityWidths sweeps the width through the column
// groups' edges: w = 1…40 gives a last group of every size on each side of
// the 16-lane zmm groups (and of the 8-lane AVX2 groups), for every
// activation — see widthCase.
func TestVectorizedScalarBitIdentityWidths(t *testing.T) {
	acts := []Act{{}, {Kind: ActReLU}, {Kind: ActLeakyReLU, Alpha: 0.1}}
	for w := 1; w <= 40; w++ {
		for i, act := range acts {
			seed := uint64(100*w + i)
			widthCase(t, w, act, seed)
		}
	}
}

// widthCase runs two products of width w every way and checks them against
// the definition: the Dense product, whose sums start from their column's
// bias, and the tap-table product, whose sums end in their row's bias. dst,
// b and both biases end at guard pages, so the last row's last group ends
// flush against one and a dead lane loaded or stored there faults.
//
// The operands carry the hardware NaN, ±Inf, −0 and denormals. Row 0 has
// positive coefficients and the last column of the Dense b is −0 under a −0
// start, so that sum is −0: the one input on which ReLU's x < 0 and x ≤ 0
// differ. Then distinct NaN payloads meet in a multiply and in both adds.
// Which payload survives is the first operand's, and which operand is first
// in the pure-Go path is the compiler's choice, so that stage compares the
// assembly paths with each other only.
func widthCase(t *testing.T, w int, act Act, seed uint64) {
	t.Helper()
	const m, kk = 7, 12 // a block of four rows and one of three; whole k-groups, no tail
	rng := NewRNG(seed)
	var frees []func()
	defer func() {
		for _, f := range frees {
			f()
		}
	}()
	alloc := func(n int) []float64 {
		s, free := guardpage.Alloc(n)
		frees = append(frees, free)
		for i := range s {
			s[i] = rng.Norm()
		}
		return s
	}
	special := func() float64 { return kernelSpecials[int(rng.Uint64()%uint64(len(kernelSpecials)))] }
	negZero := math.Copysign(0, -1)

	a := alloc(m * kk)
	for k := range kk {
		a[k] = math.Abs(a[k]) + 0.25
	}
	for s := 0; s < 4; s++ { // a lone zero in a group is applied, not skipped
		a[kk*(2+s)+int(rng.Uint64()%kk)] = special()
	}
	b, start := alloc(kk*w), alloc(w)
	for s := 0; s < 4; s++ {
		b[int(rng.Uint64()%uint64(kk*w))] = special()
		start[int(rng.Uint64()%uint64(w))] = special()
	}
	for k := range kk {
		b[k*w+w-1] = negZero
	}
	start[w-1] = negZero
	// The taps overlap like a convolution's; one run ends at the guard page.
	off := make([]int, kk)
	for k := range off {
		off[k] = int(rng.Uint64() % uint64(3*w+kk))
	}
	off[int(rng.Uint64()%kk)] = 3*w + kk
	taps, planes, rb := NewTaps(off), alloc(4*w+kk), alloc(m)
	for s := 0; s < 4; s++ {
		planes[int(rng.Uint64()%uint64(len(planes)))] = special()
	}
	rb[int(rng.Uint64()%m)] = special()

	run := func() (names []string, dense, tapped [][]float64) {
		names, _ = kernelPaths(t, func() []*Mat {
			d := alloc(m * w)
			MatMulBiasActInto(FromSlice(m, w, d), FromSlice(m, kk, a), FromSlice(kk, w, b), FromSlice(1, w, start), act)
			p := alloc(m * w)
			Kernels{}.MatMulTaps(p, w, a, m, planes, taps, w, rb, act)
			dense, tapped = append(dense, d), append(tapped, p)
			return nil
		})
		return names, dense, tapped
	}
	names, dense, tapped := run()
	for i := 0; i < m; i++ {
		for j := 0; j < w; j++ {
			row := a[i*kk : (i+1)*kk]
			wantD := refProduct(start[j], row, func(k int) float64 { return b[k*w+j] }, nil, act)
			wantT := refProduct(0, row, func(k int) float64 { return planes[off[k]+j] }, &rb[i], act)
			for p := range names {
				if got := dense[p][i*w+j]; !sameBits(got, wantD) {
					t.Fatalf("w=%d act=%v seed %d: dense (%d,%d) on the %s path is %v (%x), the definition gives %v (%x)", w, act.Kind, seed, i, j, names[p], got, math.Float64bits(got), wantD, math.Float64bits(wantD))
				}
				if got := tapped[p][i*w+j]; !sameBits(got, wantT) {
					t.Fatalf("w=%d act=%v seed %d: taps (%d,%d) on the %s path is %v (%x), the definition gives %v (%x)", w, act.Kind, seed, i, j, names[p], got, math.Float64bits(got), wantT, math.Float64bits(wantT))
				}
			}
		}
	}

	// Row 1 against column 0 of the Dense b, both finite but for a NaN apiece
	// at k = 3: the multiply keeps the coefficient's payload.
	for k := range kk {
		a[kk+k], b[k*w] = 1, 1
	}
	start[0] = 0.5
	a[kk+3], b[3*w] = nanPayload(0x1a1), nanPayload(0x2b2)
	// The last column's start against a NaN product at k = 7, and the tap
	// product's NaN sum in row 2 against its row bias: adds keep the sum's.
	if w > 1 {
		start[w-1], b[7*w+w-1] = nanPayload(0x3c3), nanPayload(0x4d4)
	}
	planes[off[0]], rb[2] = nanPayload(0x5e5), nanPayload(0x6f6)
	names, dense, tapped = run()
	asm := len(names) - 1 // every path but the pure-Go one, which is last
	for p := 1; p < asm; p++ {
		for e := range dense[0] {
			if !sameBits(dense[p][e], dense[0][e]) || !sameBits(tapped[p][e], tapped[0][e]) {
				t.Fatalf("w=%d act=%v seed %d, NaN payloads: element %d is dense %x / taps %x on the %s path, %x / %x on the %s path", w, act.Kind, seed, e,
					math.Float64bits(dense[p][e]), math.Float64bits(tapped[p][e]), names[p],
					math.Float64bits(dense[0][e]), math.Float64bits(tapped[0][e]), names[0])
			}
		}
	}
}

// TestMatMulAccParity holds the every-term product to a plain triple loop,
// bit for bit on every kernel path: one and two register blocks (m 1–6), every
// width through the column groups' edges (w 1–33), strided
// coefficients both ways, sums that start from zero or carry on from dst.
// See accCase.
func TestMatMulAccParity(t *testing.T) {
	seed := uint64(5000)
	for m := 1; m <= 6; m++ {
		for _, kk := range []int{1, 3, 8, 13} {
			for w := 1; w <= 33; w++ {
				seed++
				accCase(t, m, kk, w, seed%2 == 0, seed)
			}
		}
	}
}

// accCase runs MatMulAcc every way on operands that end at guard pages and
// checks every element against the definition. Every row's first group of
// four coefficients is zero, with an Inf and the hardware NaN in the b rows
// behind it: the row path would skip that group, MatMulAcc must not. Then
// distinct NaN payloads meet in a multiply (one in a, one in b) and in an add
// (the carried dst, a NaN product), and the assembly paths must agree with
// each other: as in widthCase, the pure-Go path's operand order is the
// compiler's.
func accCase(t *testing.T, m, kk, w int, first bool, seed uint64) {
	t.Helper()
	rng := NewRNG(seed)
	var frees []func()
	defer func() {
		for _, f := range frees {
			f()
		}
	}()
	alloc := func(n int) []float64 {
		s, free := guardpage.Alloc(n)
		frees = append(frees, free)
		for i := range s {
			s[i] = rng.Norm()
		}
		return s
	}
	ai, ak := kk+int(seed%3), 1 // rows of coefficients, or columns
	if seed%4 >= 2 {
		ai, ak = 1, m+int(seed%3)
	}
	dn, bn := w+int(seed%2), w+int(seed%3)
	a, b := alloc((m-1)*ai+(kk-1)*ak+1), alloc((kk-1)*bn+w)
	for i := 0; i < m; i++ {
		for k := 0; k < min(4, kk); k++ {
			a[i*ai+k*ak] = 0
		}
	}
	b[(min(4, kk)-1)*bn+int(seed%uint64(w))] = math.Inf(1)
	b[int(seed/3%uint64(w))] = kernelSpecials[0]
	for s := 0; s < 3; s++ {
		b[int(rng.Uint64()%uint64(len(b)))] = kernelSpecials[int(rng.Uint64()%uint64(len(kernelSpecials)))]
	}
	dst0 := alloc((m-1)*dn + w)
	dst0[int(rng.Uint64()%uint64(len(dst0)))] = kernelSpecials[int(seed%uint64(len(kernelSpecials)))]

	run := func() (names []string, outs [][]float64) {
		names, _ = kernelPaths(t, func() []*Mat {
			dst := alloc(len(dst0))
			copy(dst, dst0)
			Kernels{}.MatMulAcc(dst, dn, a, m, ai, ak, b, bn, kk, w, first)
			outs = append(outs, dst)
			return nil
		})
		return names, outs
	}
	names, outs := run()
	for i := 0; i < m; i++ {
		for j := 0; j < w; j++ {
			var want float64
			if !first {
				want = dst0[i*dn+j]
			}
			for k := 0; k < kk; k++ {
				want = float64(want + float64(a[i*ai+k*ak]*b[k*bn+j]))
			}
			for p, dst := range outs {
				if got := dst[i*dn+j]; !sameBits(got, want) {
					t.Fatalf("%dx%dx%d first=%v seed %d: %s path has %v (%x) at (%d,%d), the triple loop gives %v (%x)", m, kk, w, first, seed, names[p], got, math.Float64bits(got), i, j, want, math.Float64bits(want))
				}
			}
		}
	}

	a[(m-1)*ai+(kk-1)*ak], b[(kk-1)*bn] = nanPayload(0x1a1), nanPayload(0x2b2)
	dst0[(m-1)*dn+w-1], b[(kk-1)*bn+w-1] = nanPayload(0x3c3), nanPayload(0x4d4)
	names, outs = run()
	for p := 1; p < len(names)-1; p++ { // every path but the pure-Go one, which is last
		for e := range outs[0] {
			if !sameBits(outs[p][e], outs[0][e]) {
				t.Fatalf("%dx%dx%d first=%v seed %d, NaN payloads: element %d is %x on the %s path, %x on the %s path", m, kk, w, first, seed, e,
					math.Float64bits(outs[p][e]), names[p], math.Float64bits(outs[0][e]), names[0])
			}
		}
	}
}

// nanPayload returns the quiet NaN with payload p.
func nanPayload(p uint32) float64 { return math.Float64frombits(0x7ff8000000000000 | uint64(p)) }

// TestMatMulTapsBounds: a table that reaches past b, and operands too short
// for the shape, must panic in Go before the assembly runs.
func TestMatMulTapsBounds(t *testing.T) {
	var kern Kernels
	taps := NewTaps([]int{0, 5, 9})
	cases := map[string]func(){
		"b short": func() {
			kern.MatMulTaps(make([]float64, 8), 4, make([]float64, 6), 2, make([]float64, 12), taps, 4, nil, Act{})
		},
		"a short": func() {
			kern.MatMulTaps(make([]float64, 8), 4, make([]float64, 5), 2, make([]float64, 13), taps, 4, nil, Act{})
		},
		"dst short": func() {
			kern.MatMulTaps(make([]float64, 7), 4, make([]float64, 6), 2, make([]float64, 13), taps, 4, nil, Act{})
		},
		"bias short": func() {
			kern.MatMulTaps(make([]float64, 8), 4, make([]float64, 6), 2, make([]float64, 13), taps, 4, make([]float64, 1), Act{})
		},
		"negative": func() { NewTaps([]int{3, -1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	kern.MatMulTaps(make([]float64, 8), 4, make([]float64, 6), 2, make([]float64, 13), taps, 4, nil, Act{}) // the exact fit
}
