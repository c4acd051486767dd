package nn

import (
	"fmt"
	"strings"
	"testing"

	"odin/internal/tensor"
)

// The training convolution against the one it replaced, which multiplied
// whole-batch matrices over the patch window: weight × window for the
// output, G × windowᵀ for the weight gradient, Wᵀ × G scattered back per
// element for the input gradient. Bit for bit, specials included.

// convBackwardRef is Conv2D.Backward as it was over the whole-batch patch
// matrix cols: the gradient regrouped channel-major, db summed along each
// channel's row, dW = G × colsᵀ, dCols = Wᵀ × G, and each dCols
// column added into its sample's input element by a per-element col2im,
// taps ascending.
func convBackwardRef(c *Conv2D, cols, grad *tensor.Mat) (dx, dW *tensor.Mat, db []float64) {
	r, spatial := grad.R, c.OutH*c.OutW
	g := tensor.New(c.OutC, r*spatial)
	gradV, gV := grad.V, g.V
	db = make([]float64, c.OutC)
	for oc := 0; oc < c.OutC; oc++ {
		for n := 0; n < r; n++ {
			for s := 0; s < spatial; s++ {
				v := gradV[n*grad.C+oc*spatial+s]
				gV[oc*g.C+n*spatial+s] = v
				db[oc] += v
			}
		}
	}
	dW = tensor.New(c.OutC, c.patchRows())
	tensor.MatMulBTInto(dW, g, cols)
	dCols := tensor.New(c.patchRows(), r*spatial)
	tensor.MatMulATInto(dCols, c.Weight.W, g)
	dx = tensor.New(r, c.InSize())
	dcV, dxV := dCols.V, dx.V
	for n := 0; n < r; n++ {
		for k := 0; k < c.patchRows(); k++ {
			ch, ky, kx := k/(c.K*c.K), k/c.K%c.K, k%c.K
			for oy := 0; oy < c.OutH; oy++ {
				for ox := 0; ox < c.OutW; ox++ {
					iy, ix := oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad
					if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
						dxV[n*dx.C+(ch*c.InH+iy)*c.InW+ix] += dcV[k*dCols.C+n*spatial+oy*c.OutW+ox]
					}
				}
			}
		}
	}
	return dx, dW, db
}

// convTrainCase runs one training step of c on n samples and compares output, dx, dW and db with the whole-batch reference.
func convTrainCase(t *testing.T, c *Conv2D, n int, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	var frees []func()
	defer func() {
		for _, f := range frees {
			f()
		}
	}()
	plantWeights(c, rng, &frees)
	x := guardedMat(n, c.InSize(), rng, &frees)
	grad := guardedMat(n, c.OutSize(), rng, &frees)
	wantOut, cols := convForwardWholeBatch(c, x)
	wantDx, dW, db := convBackwardRef(c, cols, grad)
	wantDW := tensor.New(dW.R, dW.C)
	wantDW.Add(dW) // the master gradient a step accumulates into
	c.Weight.Grad.Zero()
	c.Bias.Grad.Zero()
	out := c.Forward(x, true)
	dx := c.Backward(grad)
	where := fmt.Sprintf("k=%d s=%d p=%d in %dx%dx%d out %dx%dx%d n=%d", c.K, c.Stride, c.Pad, c.InC, c.InH, c.InW, c.OutC, c.OutH, c.OutW, n)
	for _, m := range []struct {
		name      string
		got, want *tensor.Mat
	}{
		{"output", out, wantOut},
		{"dx", dx, wantDx},
		{"dW", c.Weight.Grad, wantDW},
		{"db", c.Bias.Grad, tensor.FromVec(db)},
	} {
		if i := sameBits(m.got, m.want); i >= 0 {
			t.Fatalf("%s: %s element %d is %v, the whole-batch reference has %v", where, m.name, i, m.got.At(i/m.got.C, i%m.got.C), m.want.At(i/m.want.C, i%m.want.C))
		}
	}
	Recycle(out, dx)
}

// TestConvTrainParity runs a training step — forward into the retained
// planes, backward out of them — against the whole-batch reference over
// convGrid's geometries, at one, three and eight samples split across the
// workers, with NaN, ±Inf, −0 and denormals in inputs, weights, biases and
// gradients and zero groups in the weights.
func TestConvTrainParity(t *testing.T) {
	cases := convGrid(t, tensor.NewRNG(7), func(c *Conv2D, i int) {
		convTrainCase(t, c, []int{1, 3, 8}[i%3], uint64(i))
	})
	if cases < 1000 {
		t.Fatalf("only %d geometries ran", cases)
	}
}

// TestConvBackwardChecksGradient: a gradient the last training forward did
// not produce is a programmer error, and Backward says so before it indexes
// anything.
func TestConvBackwardChecksGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	newConv := func() *Conv2D { return NewConv2D(2, 6, 7, 3, 3, 2, 1, rng) }
	trained := newConv()
	x := randomBatch(4, trained.InSize(), 14)
	Recycle(trained.Forward(x, true))
	for _, tc := range []struct {
		name string
		c    *Conv2D
		grad *tensor.Mat
		want string
	}{
		{"no training forward", newConv(), tensor.New(4, trained.OutSize()), "without a training forward"},
		{"rows", trained, tensor.New(3, trained.OutSize()), "3 rows"},
		{"width", trained, tensor.New(4, trained.OutSize()-1), "width"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: recovered %q, want a panic naming %q", tc.name, msg, tc.want)
				}
			}()
			tc.c.Backward(tc.grad)
		}()
	}
}
