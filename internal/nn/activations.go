package nn

import (
	"math"

	"odin/internal/tensor"
)

// Element-wise transforms shared by the layer Forwards (dst and src
// distinct) and, for the two activations the kernels do not apply
// themselves, the fused inference path (dst == src: the applyRows methods,
// see rowAct).

func reluInto(dst, src []float64) {
	for i, x := range src {
		if x < 0 {
			dst[i] = 0
		} else {
			dst[i] = x
		}
	}
}

func leakyReLUInto(dst, src []float64, alpha float64) {
	for i, x := range src {
		if x < 0 {
			dst[i] = x * alpha
		} else {
			dst[i] = x
		}
	}
}

func sigmoidInto(dst, src []float64) {
	for i, x := range src {
		dst[i] = 1 / (1 + math.Exp(-x))
	}
}

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	lastIn *tensor.Mat
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise. The backward cache is only
// written on training passes; inference passes touch no layer state, so
// concurrent inference is race-free.
func (r *ReLU) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		r.lastIn = x
	}
	out := ws.GetRaw(x.R, x.C)
	reluInto(out.V, x.V)
	return out
}

func (r *ReLU) kernelAct() tensor.Act { return tensor.Act{Kind: tensor.ActReLU} }

func reluBack(dst, in, g []float64) {
	for i, v := range in {
		if v < 0 {
			dst[i] = 0
		} else {
			dst[i] = g[i]
		}
	}
}

// Backward zeroes the gradient where the input was negative.
func (r *ReLU) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRaw(grad.R, grad.C)
	reluBack(out.V, r.lastIn.V, grad.V)
	return out
}

// Params returns nil: ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is max(x, alpha*x), the activation used by GAN discriminators.
type LeakyReLU struct {
	Alpha  float64
	lastIn *tensor.Mat
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier element-wise. Layer state is only
// written on training passes.
func (l *LeakyReLU) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		l.lastIn = x
	}
	out := ws.GetRaw(x.R, x.C)
	leakyReLUInto(out.V, x.V, l.Alpha)
	return out
}

func (l *LeakyReLU) kernelAct() tensor.Act {
	return tensor.Act{Kind: tensor.ActLeakyReLU, Alpha: l.Alpha}
}

func leakyBack(dst, in, g []float64, alpha float64) {
	for i, v := range in {
		if v < 0 {
			dst[i] = g[i] * alpha
		} else {
			dst[i] = g[i]
		}
	}
}

// Backward scales the gradient by alpha where the input was negative.
func (l *LeakyReLU) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRaw(grad.R, grad.C)
	leakyBack(out.V, l.lastIn.V, grad.V, l.Alpha)
	return out
}

// Params returns nil: LeakyReLU has no trainable parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation 1/(1+e^-x).
type Sigmoid struct {
	lastOut *tensor.Mat
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function element-wise.
func (s *Sigmoid) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := ws.GetRaw(x.R, x.C)
	sigmoidInto(out.V, x.V)
	if train {
		s.lastOut = out
	}
	return out
}

func (s *Sigmoid) applyRows(m *tensor.Mat, r0, r1 int) {
	v := m.V[r0*m.C : r1*m.C]
	sigmoidInto(v, v)
}

func sigmoidBack(dst, y, g []float64) {
	for i, v := range y {
		dst[i] = g[i] * v * (1 - v)
	}
}

// Backward multiplies the gradient by σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRaw(grad.R, grad.C)
	sigmoidBack(out.V, s.lastOut.V, grad.V)
	return out
}

// Params returns nil: Sigmoid has no trainable parameters.
func (s *Sigmoid) Params() []*Param { return nil }
