package nn

import (
	"math"

	"odin/internal/tensor"
)

// Dense is a fully connected layer computing y = xW + b.
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	lastIn *tensor.Mat // cached input for backward
}

// NewDense creates a dense layer with He-uniform initialised weights.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: newParam("dense.W", in, out),
		Bias:   newParam("dense.b", 1, out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	rng.FillUniform(d.Weight.W, -bound, bound)
	return d
}

// Forward computes xW + b for a batch x (rows are examples), with the bias
// folded into the matmul as the start of every sum. The backward cache is
// only written on training passes; inference passes touch no layer state at
// all, so any number of goroutines may run inference Forwards concurrently
// (Backward must follow a Forward with train=true).
func (d *Dense) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		d.lastIn = x
	}
	return d.forwardAct(x, tensor.Act{})
}

// forwardAct computes act(xW + b), the activation applied by the kernel as
// it stores each finished sum. No backward caches are recorded and no layer
// state is touched (re-entrant).
func (d *Dense) forwardAct(x *tensor.Mat, act tensor.Act) *tensor.Mat {
	if x.C != d.In {
		panic("nn: dense input width mismatch")
	}
	out := ws.GetRaw(x.R, d.Out)
	tensor.MatMulBiasActInto(out, x, d.Weight.W, d.Bias.W, act)
	return out
}

// Backward accumulates dW = xᵀg, db = Σ rows of g and returns dx = gWᵀ.
func (d *Dense) Backward(grad *tensor.Mat) *tensor.Mat {
	dW := ws.GetRaw(d.In, d.Out)
	tensor.MatMulATInto(dW, d.lastIn, grad)
	d.Weight.Grad.Add(dW)
	ws.Put(dW)
	for i := 0; i < grad.R; i++ {
		for j, g := range grad.Row(i) {
			d.Bias.Grad.V[j] += g
		}
	}
	dx := ws.GetRaw(grad.R, d.In)
	tensor.MatMulBTInto(dx, grad, d.Weight.W)
	return dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }
