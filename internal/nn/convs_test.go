package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"odin/internal/guardpage"
	"odin/internal/tensor"
)

// The window-free inference convolution against its definition: unroll the
// sample with the per-element reference (im2colRef), multiply weight × window
// one element at a time under the kernels' contract, add the channel bias,
// apply the activation. Bit for bit, specials included.

// hwNaN is the NaN the hardware makes. Where two different NaNs meet x86
// keeps the first operand's and the pure-Go kernels leave the operand order
// to the compiler, so the tests plant one NaN only (tensor/taps_test.go).
var hwNaN = math.Float64frombits(0xFFF8000000000000)

var convSpecials = []float64{hwNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -3e-310, 1e-42}

// refConvSample is one sample's convolution by definition: out[oc][s] =
// act(Σk w[oc][k]·window[k][s] + bias[oc]), terms in ascending k, a
// k-aligned group of four zero weights skipped whole and a zero weight among
// the trailing k mod 4 (DESIGN §8).
func refConvSample(c *Conv2D, x, w, bias []float64, act tensor.Act) []float64 {
	spatial, kk := c.OutH*c.OutW, c.patchRows()
	win := make([]float64, kk*spatial)
	im2colRef(c, x, win, spatial, 0)
	out := make([]float64, c.OutC*spatial)
	for oc := 0; oc < c.OutC; oc++ {
		a := w[oc*kk : (oc+1)*kk]
		for s := 0; s < spatial; s++ {
			var sum float64
			for k := 0; k+4 <= kk; k += 4 {
				if a[k] == 0 && a[k+1] == 0 && a[k+2] == 0 && a[k+3] == 0 {
					continue
				}
				for q := k; q < k+4; q++ {
					sum = float64(sum + float64(a[q]*win[q*spatial+s]))
				}
			}
			for k := kk &^ 3; k < kk; k++ {
				if a[k] != 0 {
					sum = float64(sum + float64(a[k]*win[k*spatial+s]))
				}
			}
			sum = float64(sum + bias[oc])
			switch {
			case act.Kind == tensor.ActReLU && sum < 0:
				sum = 0
			case act.Kind == tensor.ActLeakyReLU && sum < 0:
				sum = float64(sum * act.Alpha)
			}
			out[oc*spatial+s] = sum
		}
	}
	return out
}

// guardedMat returns an r×c matrix whose storage ends flush against a guard
// page (on linux), filled from rng with a few specials planted.
func guardedMat(r, c int, rng *tensor.RNG, frees *[]func()) *tensor.Mat {
	m := &tensor.Mat{R: r, C: c}
	var free func()
	m.V, free = guardpage.Alloc(r * c)
	*frees = append(*frees, free)
	rng.FillNormal(m, 1)
	for s := 0; s < 3 && r*c > 0; s++ {
		i := int(rng.Uint64() % uint64(r*c))
		m.Set(i/c, i%c, convSpecials[int(rng.Uint64()%uint64(len(convSpecials)))])
	}
	return m
}

// plantWeights gives the layer guarded master weights with specials, and in
// every third filter a zero group of four and a zero in the tail — the rows
// the register tile must leave to the row path.
func plantWeights(c *Conv2D, rng *tensor.RNG, frees *[]func()) {
	kk := c.patchRows()
	c.Weight.W = guardedMat(c.OutC, kk, rng, frees)
	c.Bias.W = guardedMat(1, c.OutC, rng, frees)
	for oc := 1; oc < c.OutC; oc += 3 {
		if kk >= 4 {
			k0 := 4 * int(rng.Uint64()%uint64(kk/4))
			for k := k0; k < k0+4; k++ {
				c.Weight.W.Set(oc, k, 0)
			}
		}
		c.Weight.W.Set(oc, kk-1, 0)
	}
}

// seedPools lays guarded memory where a one-layer inference run will draw
// its scratch from — the layer's planes, the wide output, the result — so
// that a kernel reading or writing past any of them faults. The run gets a
// fresh workspace, whose floor classes hand each request the guarded buffer
// of exactly its size. It returns the function that restores the workspace
// and empties the layer's plane pool before the scratch is unmapped.
// Parallelism must be 1: a second worker would draw plain memory.
func seedPools(c *Conv2D, n int, frees *[]func()) (unseed func()) {
	raw := func(len int) *tensor.Mat {
		m := &tensor.Mat{R: 1, C: len}
		var free func()
		m.V, free = guardpage.Alloc(len) // zeroed: the planes' border
		*frees = append(*frees, free)
		return m
	}
	old := ws
	ws = tensor.NewPool()
	c.planes = tensor.NewPool()
	c.planes.Put(raw(c.planesLen()))
	if c.planeW != c.OutW {
		ws.Put(raw(c.wideLen()))
	}
	ws.Put(raw(n * c.OutSize()))
	return func() {
		c.planes = tensor.NewPool()
		ws = old
	}
}

func convParityCase(t *testing.T, c *Conv2D, n int, act tensor.Act, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	var frees []func()
	defer func() {
		for _, f := range frees {
			f()
		}
	}()
	plantWeights(c, rng, &frees)
	var actLayer Layer
	switch act.Kind {
	case tensor.ActReLU:
		actLayer = NewReLU()
	case tensor.ActLeakyReLU:
		actLayer = NewLeakyReLU(act.Alpha)
	}
	layers := []Layer{c}
	if actLayer != nil {
		layers = append(layers, actLayer)
	}
	net := NewNetwork("parity", layers...)
	x := guardedMat(n, c.InSize(), rng, &frees)
	unseed := seedPools(c, n, &frees)
	got := net.Forward(x, false)
	unseed()
	for s := 0; s < n; s++ {
		if diff := firstDiff(got.Row(s), refConvSample(c, x.Row(s), c.Weight.W.V, c.Bias.W.V, act)); diff >= 0 {
			t.Fatalf("k=%d s=%d p=%d in %dx%dx%d out %dx%dx%d n=%d act=%v: sample %d output %d differs from the definition",
				c.K, c.Stride, c.Pad, c.InC, c.InH, c.InW, c.OutC, c.OutH, c.OutW, n, act.Kind, s, diff)
		}
	}
}

// firstDiff returns the first index at which got and want differ bit for
// bit, or -1.
func firstDiff(got, want []float64) int {
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			return i
		}
	}
	return -1
}

// convGrid calls fn with a fresh two-channel, five-filter layer for every
// geometry of kernel 1/3/5 × stride 1/2/3 × padding 0/1/2 × every output
// width through two AVX-512F column groups × odd and even input
// widths × input heights 6 and 7, numbering them from 1, and returns how
// many there were.
func convGrid(t *testing.T, rng *tensor.RNG, fn func(c *Conv2D, i int)) int {
	t.Helper()
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for outW := 1; outW <= 33; outW++ {
					for extra := 0; extra < min(stride, 2); extra++ { // columns past the last tap: InW odd and even
						inW := (outW-1)*stride + k - 2*pad + extra
						for _, inH := range []int{6, 7} {
							if inW < 1 || inH+2*pad < k {
								continue
							}
							cases++
							c := NewConv2D(2, inH, inW, 5, k, stride, pad, rng)
							if c.OutW != outW {
								t.Fatalf("k=%d s=%d p=%d inW=%d: OutW %d, meant %d", k, stride, pad, inW, c.OutW, outW)
							}
							fn(c, cases)
						}
					}
				}
			}
		}
	}
	return cases
}

// TestConvDirectParity runs the window-free path against the definition over
// convGrid's geometries at one, three and eight samples (samples share one
// scratch: whatever a sample leaves in the planes' border or the junk
// columns would show in the next), with each fused activation, NaN, ±Inf, −0
// and denormals in inputs, weights and biases, zero groups in the weights,
// and every operand and scratch ending at a guard page.
func TestConvDirectParity(t *testing.T) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(1) // seedPools
	defer tensor.SetParallelism(prev)
	acts := []tensor.Act{{}, {Kind: tensor.ActReLU}, {Kind: tensor.ActLeakyReLU, Alpha: 0.1}}
	cases := convGrid(t, tensor.NewRNG(5), func(c *Conv2D, i int) {
		convParityCase(t, c, []int{1, 3, 8}[i%3], acts[i%len(acts)], uint64(i))
	})
	if cases < 1000 {
		t.Fatalf("only %d geometries ran", cases)
	}
}

// TestConvRunParity chains convolutions the way a detector does — each
// layer's split reading the wide output of the one before, junk columns and
// all — and the whole run must equal the definition applied layer by layer.
func TestConvRunParity(t *testing.T) {
	rng := tensor.NewRNG(23)
	leaky := tensor.Act{Kind: tensor.ActLeakyReLU, Alpha: 0.1}
	for _, g := range []struct{ h, w, k1, s1, p1, k2, s2, p2 int }{
		{27, 48, 3, 2, 1, 3, 2, 1}, // the detectors' backbone
		{9, 11, 3, 1, 1, 3, 2, 0},  // two junk columns into a stride-2 split
		{9, 11, 5, 2, 2, 3, 1, 1},  // a 5×5's two junk columns into a stride-1 copy
		{8, 9, 3, 3, 1, 1, 1, 0},   // stride past the kernel, then 1×1 on the wide rows
		{7, 7, 1, 1, 0, 3, 2, 1},   // the run opens in place
	} {
		c1 := NewConv2D(3, g.h, g.w, 6, g.k1, g.s1, g.p1, rng)
		c2 := NewConv2D(6, c1.OutH, c1.OutW, 7, g.k2, g.s2, g.p2, rng)
		head := NewConv2D(7, c2.OutH, c2.OutW, 3, 1, 1, 0, rng)
		for _, c := range []*Conv2D{c1, c2, head} {
			rng.FillNormal(c.Bias.W, 1)
		}
		net := NewNetwork("run", c1, NewLeakyReLU(0.1), c2, NewLeakyReLU(0.1), head)
		if stages, next := convRun(net.Layers, 0); len(stages) != 3 || next != 5 {
			t.Fatalf("%+v: the run has %d stages and ends at layer %d", g, len(stages), next)
		}
		for _, n := range []int{1, 3, 8} {
			x := randomBatch(n, c1.InSize(), uint64(300+n))
			x.V[5], x.V[len(x.V)-1] = math.Inf(1), hwNaN
			got := net.Forward(x, false)
			for s := 0; s < n; s++ {
				h := refConvSample(c1, x.Row(s), c1.Weight.W.V, c1.Bias.W.V, leaky)
				h = refConvSample(c2, h, c2.Weight.W.V, c2.Bias.W.V, leaky)
				if diff := firstDiff(got.Row(s), refConvSample(head, h, head.Weight.W.V, head.Bias.W.V, tensor.Act{})); diff >= 0 {
					t.Fatalf("%+v n=%d: sample %d output %d differs from the layers' definition", g, n, s, diff)
				}
			}
			Recycle(got)
		}
	}
}

// TestPredictRowsParity: frames read where they lie — separate slices —
// give the bits of the same frames stacked into a batch first, for a network that opens with a
// convolution and for one that does not.
func TestPredictRowsParity(t *testing.T) {
	rng := tensor.NewRNG(31)
	c1 := NewConv2D(3, 27, 48, 10, 3, 2, 1, rng)
	conv := NewNetwork("conv", c1, NewLeakyReLU(0.1), NewConv2D(10, 14, 24, 4, 1, 1, 0, rng))
	head := NewNetwork("head", NewConv2D(3, 27, 48, 4, 1, 1, 0, rng)) // reads frames in place
	dense := NewNetwork("dense", NewDense(3*27*48, 16, rng), NewReLU(), NewDense(16, 4, rng))
	for _, net := range []*Network{conv, head, dense} {
		for _, n := range []int{1, 5} {
			x := randomBatch(n, 3*27*48, uint64(40+n))
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = append([]float64(nil), x.Row(i)...)
			}
			want := net.Predict(x)
			got := net.PredictRows(rows)
			if got.R != n {
				t.Fatalf("%s n=%d: PredictRows returned %dx%d", net.Name, n, got.R, got.C)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s n=%d: PredictRows differs from Predict on the stacked batch at element %d", net.Name, n, i)
			}
		}
	}
}

// TestPredictRowsShortFramePanics: a frame one pixel short, laid flush
// against a guard page, must end in the shape panic — a fault would mean a
// kernel trusted the length before anyone checked it.
func TestPredictRowsShortFramePanics(t *testing.T) {
	rng := tensor.NewRNG(37)
	net := NewNetwork("det", NewConv2D(3, 27, 48, 10, 3, 2, 1, rng), NewLeakyReLU(0.1))
	good := make([]float64, 3*27*48)
	short, free := guardpage.Alloc(3*27*48 - 1)
	defer free()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "width") {
			t.Fatalf("short frame: recovered %q, want the input-width panic", msg)
		}
	}()
	net.PredictRows([][]float64{good, short})
}

// TestConvUnevenGeometry pins what NewConv2D's comment says: a geometry
// that does not divide evenly is accepted, and the served one — 48 columns
// at stride 2, (48+2−3)/2 = 23.5 — loses no input: the last input column is
// the last tap of the last output column, on the im2col path and on the
// direct one.
func TestConvUnevenGeometry(t *testing.T) {
	rng := tensor.NewRNG(43)
	c := NewConv2D(1, 27, 48, 1, 3, 2, 1, rng)
	if c.OutH != 14 || c.OutW != 24 {
		t.Fatalf("27x48 k=3 s=2 p=1: out %dx%d, want 14x24", c.OutH, c.OutW)
	}
	c.Weight.W.Fill(1)
	x := tensor.New(1, c.InSize())
	for y := 0; y < c.InH; y++ {
		x.V[y*c.InW+c.InW-1] = 1 // the last column only
	}
	for _, train := range []bool{true, false} {
		out := c.Forward(x, train)
		for oy := 0; oy < c.OutH; oy++ {
			row := out.Row(0)[oy*c.OutW : (oy+1)*c.OutW]
			for ox, v := range row {
				if (v != 0) != (ox == c.OutW-1) {
					t.Fatalf("train=%v: output (%d,%d) = %v: the last input column must reach the last output column and no other", train, oy, ox, v)
				}
			}
		}
	}
	NewConv2D(2, 10, 10, 3, 3, 3, 0, rng) // (10−3)/3 does not divide either: no panic
}
