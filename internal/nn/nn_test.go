package nn

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/tensor"
)

func TestMSEKnownValue(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{1, 3})
	target := tensor.FromSlice(1, 2, []float64{0, 0})
	loss, grad := MSE(pred, target)
	if math.Abs(loss-5) > 1e-12 {
		t.Fatalf("loss=%v, want 5", loss)
	}
	if math.Abs(grad.V[0]-1) > 1e-12 || math.Abs(grad.V[1]-3) > 1e-12 {
		t.Fatalf("grad=%v", grad.V)
	}
}

func TestBCEPerfectPrediction(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{1 - 1e-9, 1e-9})
	target := tensor.FromSlice(1, 2, []float64{1, 0})
	loss, _ := BCE(pred, target)
	if loss > 1e-5 {
		t.Fatalf("perfect prediction should give ~0 loss, got %v", loss)
	}
}

func TestBCEGradientDirection(t *testing.T) {
	pred := tensor.FromSlice(1, 1, []float64{0.3})
	target := tensor.FromSlice(1, 1, []float64{1})
	_, grad := BCE(pred, target)
	if grad.V[0] >= 0 {
		t.Fatalf("gradient should push prediction up, got %v", grad.V[0])
	}
}

func TestSoftmaxNormalised(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		row := rng.NormVec(5)
		p := make([]float64, len(row))
		SoftmaxInto(p, row)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdamConverges(t *testing.T) {
	p := &Param{W: tensor.FromSlice(1, 2, []float64{5, -3}), Grad: tensor.New(1, 2)}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.V[0] = 2 * p.W.V[0]
		p.Grad.V[1] = 2 * p.W.V[1]
		opt.Step([]*Param{p})
		p.Grad.Zero()
	}
	if math.Abs(p.W.V[0]) > 1e-3 || math.Abs(p.W.V[1]) > 1e-3 {
		t.Fatalf("Adam did not converge: %v", p.W.V)
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{W: tensor.New(1, 2), Grad: tensor.FromSlice(1, 2, []float64{3, 4})}
	ClipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.Grad.V[0], p.Grad.V[1])
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped norm=%v, want 1", norm)
	}
	// Already below threshold: unchanged.
	p2 := &Param{W: tensor.New(1, 1), Grad: tensor.FromSlice(1, 1, []float64{0.5})}
	ClipGrads([]*Param{p2}, 1)
	if p2.Grad.V[0] != 0.5 {
		t.Fatal("small gradient should be untouched")
	}
}

// TestGradsOnlyForTraining: a layer carries no gradient until its first
// training forward, inference leaves it so, and every reader of a gradient
// treats the missing one as zero — Adam moves the weights exactly as a zero
// gradient would, ClipGrads and ZeroGrad pass over it.
func TestGradsOnlyForTraining(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.New(2, 4)
	rng.FillNormal(x, 1)
	for _, l := range []Layer{NewDense(4, 3, rng), NewConv2D(1, 2, 2, 2, 1, 1, 0, rng), NewBatchNorm(4)} {
		Recycle(l.Forward(x, false))
		for _, p := range l.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: inference allocated a gradient", p.Name)
			}
		}
		Recycle(l.Forward(x, true))
		for _, p := range l.Params() {
			if p.Grad == nil || p.Grad.R != p.W.R || p.Grad.C != p.W.C {
				t.Fatalf("%s: a training forward left gradient %v, want one shaped like W", p.Name, p.Grad)
			}
			for _, g := range p.Grad.V {
				if g != 0 {
					t.Fatalf("%s: a fresh gradient holds %v", p.Name, g)
				}
			}
		}
	}

	lazy := &Param{W: tensor.FromSlice(1, 2, []float64{1, -2})}
	zero := &Param{W: tensor.FromSlice(1, 2, []float64{1, -2}), Grad: tensor.New(1, 2)}
	moved := &Param{W: tensor.FromSlice(1, 1, []float64{4}), Grad: tensor.FromSlice(1, 1, []float64{3})}
	ClipGrads([]*Param{lazy, moved}, 1)
	NewNetwork("fresh", NewDense(2, 2, rng)).ZeroGrad()
	optLazy, optZero := NewAdam(0.1), NewAdam(0.1)
	for i := 0; i < 3; i++ {
		optLazy.Step([]*Param{lazy})
		optZero.Step([]*Param{zero})
	}
	for i, w := range zero.W.V {
		if math.Float64bits(lazy.W.V[i]) != math.Float64bits(w) {
			t.Fatalf("Adam on a missing gradient moved weight %d to %v, on a zero one to %v", i, lazy.W.V[i], w)
		}
	}
	if moved.Grad.V[0] != 1 {
		t.Fatalf("ClipGrads beside a missing gradient left %v, want 1", moved.Grad.V[0])
	}
}

// TestMLPLearnsXOR is the classic end-to-end sanity check: a 2-layer MLP
// must drive XOR loss near zero.
func TestMLPLearnsXOR(t *testing.T) {
	rng := tensor.NewRNG(42)
	net := NewNetwork("xor",
		NewDense(2, 8, rng),
		NewLeakyReLU(0.1),
		NewDense(8, 1, rng),
		NewSigmoid(),
	)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	opt := NewAdam(0.05)
	var loss float64
	for i := 0; i < 2000; i++ {
		out := net.Forward(x, true)
		var grad *tensor.Mat
		loss, grad = BCE(out, y)
		net.ZeroGrad()
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 0.05 {
		t.Fatalf("XOR loss did not converge: %v", loss)
	}
	out := net.Predict(x)
	for i, want := range y.V {
		got := out.V[i]
		if (want == 1 && got < 0.5) || (want == 0 && got >= 0.5) {
			t.Fatalf("XOR row %d misclassified: %v", i, got)
		}
	}
}

func TestConvNetLearnsVerticalVsHorizontal(t *testing.T) {
	// 6x6 single-channel images with a vertical or horizontal bar; a tiny
	// conv net must separate them.
	rng := tensor.NewRNG(7)
	makeImage := func(vertical bool, pos int) []float64 {
		img := make([]float64, 36)
		for i := 0; i < 6; i++ {
			if vertical {
				img[i*6+pos] = 1
			} else {
				img[pos*6+i] = 1
			}
		}
		return img
	}
	var rows []float64
	var labels []float64
	for pos := 0; pos < 6; pos++ {
		rows = append(rows, makeImage(true, pos)...)
		labels = append(labels, 1)
		rows = append(rows, makeImage(false, pos)...)
		labels = append(labels, 0)
	}
	x := tensor.FromSlice(12, 36, rows)
	y := tensor.FromSlice(12, 1, labels)

	conv := NewConv2D(1, 6, 6, 4, 3, 1, 1, rng)
	net := NewNetwork("bars",
		conv,
		NewReLU(),
		NewDense(conv.OutSize(), 1, rng),
		NewSigmoid(),
	)
	opt := NewAdam(0.02)
	var loss float64
	for i := 0; i < 300; i++ {
		out := net.Forward(x, true)
		var grad *tensor.Mat
		loss, grad = BCE(out, y)
		net.ZeroGrad()
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 0.1 {
		t.Fatalf("conv net failed to learn bars: loss=%v", loss)
	}
}

func TestBatchNormNormalises(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := tensor.NewRNG(4)
	x := tensor.New(64, 2)
	for i := 0; i < x.R; i++ {
		x.Set(i, 0, 5+2*rng.Norm())
		x.Set(i, 1, -3+0.5*rng.Norm())
	}
	out := bn.Forward(x, true)
	for j := 0; j < 2; j++ {
		var sum, sq float64
		for i := 0; i < out.R; i++ {
			v := out.At(i, j)
			sum += v
			sq += v * v
		}
		mean := sum / float64(out.R)
		variance := sq/float64(out.R) - mean*mean
		if math.Abs(mean) > 1e-6 {
			t.Fatalf("bn mean col %d = %v", j, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("bn var col %d = %v", j, variance)
		}
	}
}

func TestNetworkNumParamsAndString(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork("n", NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	want := 3*4 + 4 + 4*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams=%d, want %d", got, want)
	}
	if net.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestConvOutputGeometry(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := NewConv2D(3, 27, 48, 16, 3, 2, 1, rng)
	if c.OutH != 14 || c.OutW != 24 {
		t.Fatalf("conv geometry: got %dx%d", c.OutH, c.OutW)
	}
	x := randomBatch(2, 3*27*48, 10)
	out := c.Forward(x, false)
	if out.R != 2 || out.C != 16*14*24 {
		t.Fatalf("conv output shape: %dx%d", out.R, out.C)
	}
}

// im2colRef unrolls one sample into the column block [off, off+OutH*OutW)
// of a patch window (row stride colsC), one padding test per element: the
// definition of the window the convolution multiplies by and never builds.
func im2colRef(c *Conv2D, row, colsV []float64, colsC, off int) {
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				idx := ((ch*c.K+ky)*c.K+kx)*colsC + off
				for oy := 0; oy < c.OutH; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					for ox := 0; ox < c.OutW; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						var v float64
						if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
							v = row[(ch*c.InH+iy)*c.InW+ix]
						}
						colsV[idx] = v
						idx++
					}
				}
			}
		}
	}
}

// convForwardWholeBatch is Conv2D.Forward as it was before it became
// sample-blocked: unroll the whole batch into one patch matrix, one
// weight × patches multiply, then regroup the channel-major product into
// per-sample rows while adding the bias. It returns the patch matrix too,
// the backward cache of those days.
func convForwardWholeBatch(c *Conv2D, x *tensor.Mat) (out, cols *tensor.Mat) {
	spatial := c.OutH * c.OutW
	cols = tensor.New(c.patchRows(), x.R*spatial)
	for n := 0; n < x.R; n++ {
		im2colRef(c, x.Row(n), cols.V, cols.C, n*spatial)
	}
	y := tensor.New(c.OutC, x.R*spatial)
	tensor.MatMulInto(y, c.Weight.W, cols)
	out = tensor.New(x.R, c.OutSize())
	for n := 0; n < x.R; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for s := 0; s < spatial; s++ {
				out.V[n*out.C+oc*spatial+s] = y.V[oc*y.C+n*spatial+s] + c.Bias.W.V[oc]
			}
		}
	}
	return out, cols
}

// sameBits reports the first element at which two matrices differ bit for
// bit, or -1.
func sameBits(a, b *tensor.Mat) int {
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return i
		}
	}
	return -1
}

// windowOfPlanes reads the whole-batch patch matrix out of a training
// forward's retained planes through the tap table: column n·spatial +
// oy·OutW + ox of row k is planes_n[taps[k] + oy·planeW + ox].
func windowOfPlanes(c *Conv2D, planes *tensor.Mat) *tensor.Mat {
	spatial := c.OutH * c.OutW
	win := tensor.New(c.patchRows(), planes.R*spatial)
	for k := 0; k < win.R; k++ {
		for n := 0; n < planes.R; n++ {
			for oy := 0; oy < c.OutH; oy++ {
				for ox := 0; ox < c.OutW; ox++ {
					win.Set(k, n*spatial+oy*c.OutW+ox, planes.At(n, c.taps.At(k)+oy*c.planeW+ox))
				}
			}
		}
	}
	return win
}

// TestConvForwardBlockedBitIdentity pins the sample-blocked forward to the
// whole-batch one it replaced: same output bits, at one
// sample, a few and a serving window, in inference and in training — where
// the retained planes, the backward cache, must hold the patch matrix too.
func TestConvForwardBlockedBitIdentity(t *testing.T) {
	rng := tensor.NewRNG(41)
	for _, g := range []struct{ inC, h, w, outC, k, stride, pad int }{
		{3, 27, 48, 10, 3, 2, 1}, // specialized and lite backbone
		{10, 14, 24, 14, 3, 2, 1},
		{14, 7, 12, 10, 1, 1, 0}, // their 1×1 head
		{3, 27, 48, 16, 3, 2, 1}, // baseline backbone
		{16, 14, 24, 24, 3, 2, 1},
		{24, 7, 12, 24, 3, 1, 1},
		{2, 9, 11, 5, 3, 3, 2}, // padding wider than a tap, stride past the edge
	} {
		c := NewConv2D(g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad, rng)
		rng.FillNormal(c.Bias.W, 1) // a zero bias would hide a missing add
		for _, n := range []int{1, 3, 64} {
			x := randomBatch(n, c.InSize(), uint64(100+n))
			want, wantCols := convForwardWholeBatch(c, x)
			for _, train := range []bool{false, true} {
				got := c.Forward(x, train)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%+v n=%d train=%v: output element %d differs from the whole-batch forward", g, n, train, i)
				}
				Recycle(got)
			}
			if i := sameBits(windowOfPlanes(c, c.trainPlanes), wantCols); i >= 0 {
				t.Fatalf("%+v n=%d: the retained planes' patch matrix differs at %d", g, n, i)
			}
		}
	}
}
