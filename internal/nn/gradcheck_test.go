package nn

import (
	"math"
	"testing"

	"odin/internal/tensor"
)

// mse is the gradient checks' loss: the mean squared error over all
// elements and its gradient with respect to pred.
func mse(pred, target *tensor.Mat) (float64, *tensor.Mat) {
	grad := tensor.New(pred.R, pred.C)
	n := float64(len(pred.V))
	var loss float64
	for i, p := range pred.V {
		d := p - target.V[i]
		loss += d * d
		grad.V[i] = 2 * d / n
	}
	return loss / n, grad
}

// numericalGrad estimates dLoss/dx by central differences for an arbitrary
// scalar loss of the network output, and compares against Backward.
func checkLayerGradient(t *testing.T, layer Layer, in *tensor.Mat, tol float64) {
	t.Helper()
	probe := layer.Forward(in, true)
	target := tensor.New(probe.R, probe.C)
	for i := range target.V {
		target.V[i] = 0.3 * float64(i%3)
	}
	lossOf := func(x *tensor.Mat) float64 {
		out := layer.Forward(x, true)
		l, _ := mse(out, target)
		return l
	}

	// Analytic input gradient.
	out := layer.Forward(in, true)
	_, g := mse(out, target)
	analytic := layer.Backward(g)

	const h = 1e-5
	for i := range in.V {
		orig := in.V[i]
		in.V[i] = orig + h
		lp := lossOf(in)
		in.V[i] = orig - h
		lm := lossOf(in)
		in.V[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analytic.V[i]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("input grad mismatch at %d: analytic=%g numeric=%g", i, analytic.V[i], numeric)
		}
	}

	// Analytic parameter gradients.
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	out = layer.Forward(in, true)
	_, g = mse(out, target)
	layer.Backward(g)
	for pi, p := range layer.Params() {
		for i := range p.W.V {
			orig := p.W.V[i]
			p.W.V[i] = orig + h
			lp := lossOf(in)
			p.W.V[i] = orig - h
			lm := lossOf(in)
			p.W.V[i] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-p.Grad.V[i]) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d grad mismatch at %d: analytic=%g numeric=%g", pi, i, p.Grad.V[i], numeric)
			}
		}
	}
}

func randomBatch(r, c int, seed uint64) *tensor.Mat {
	rng := tensor.NewRNG(seed)
	m := tensor.New(r, c)
	rng.FillNormal(m, 1)
	return m
}

func TestDenseGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	checkLayerGradient(t, NewDense(5, 4, rng), randomBatch(3, 5, 2), 1e-4)
}

func TestReLUGradient(t *testing.T) {
	// Shift inputs away from the kink at 0.
	in := randomBatch(2, 6, 3)
	for i := range in.V {
		if math.Abs(in.V[i]) < 0.1 {
			in.V[i] = 0.5
		}
	}
	checkLayerGradient(t, NewReLU(), in, 1e-4)
}

func TestLeakyReLUGradient(t *testing.T) {
	in := randomBatch(2, 6, 4)
	for i := range in.V {
		if math.Abs(in.V[i]) < 0.1 {
			in.V[i] = -0.5
		}
	}
	checkLayerGradient(t, NewLeakyReLU(0.2), in, 1e-4)
}

func TestSigmoidGradient(t *testing.T) {
	checkLayerGradient(t, NewSigmoid(), randomBatch(2, 5, 5), 1e-4)
}

func TestConv2DGradient(t *testing.T) {
	rng := tensor.NewRNG(7)
	layer := NewConv2D(2, 5, 5, 3, 3, 1, 1, rng)
	checkLayerGradient(t, layer, randomBatch(2, 2*5*5, 8), 1e-4)
}

func TestConv2DStridedGradient(t *testing.T) {
	rng := tensor.NewRNG(9)
	layer := NewConv2D(1, 6, 6, 2, 3, 2, 1, rng)
	checkLayerGradient(t, layer, randomBatch(2, 36, 10), 1e-4)
}

func TestBatchNormGradient(t *testing.T) {
	layer := NewBatchNorm(4)
	checkLayerGradient(t, layer, randomBatch(6, 4, 12), 1e-3)
}

func TestSequentialNetworkGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := NewNetwork("mlp",
		NewDense(6, 8, rng),
		NewSigmoid(),
		NewDense(8, 3, rng),
		NewSigmoid(),
	)
	checkLayerGradient(t, net, randomBatch(4, 6, 14), 1e-4)
}

func TestConvNetworkGradient(t *testing.T) {
	rng := tensor.NewRNG(15)
	conv := NewConv2D(1, 6, 6, 2, 3, 1, 1, rng)
	net := NewNetwork("convnet",
		conv,
		NewLeakyReLU(0.1),
		NewDense(conv.OutSize(), 4, rng),
		NewSigmoid(),
	)
	in := randomBatch(2, 36, 16)
	for i := range in.V {
		if math.Abs(in.V[i]) < 0.05 {
			in.V[i] = 0.3
		}
	}
	checkLayerGradient(t, net, in, 2e-4)
}
