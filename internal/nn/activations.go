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

func tanhInto(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Tanh(x)
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

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOut *tensor.Mat
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := ws.GetRaw(x.R, x.C)
	tanhInto(out.V, x.V)
	if train {
		t.lastOut = out
	}
	return out
}

func (t *Tanh) applyRows(m *tensor.Mat, r0, r1 int) {
	v := m.V[r0*m.C : r1*m.C]
	tanhInto(v, v)
}

func tanhBack(dst, y, g []float64) {
	for i, v := range y {
		dst[i] = g[i] * (1 - v*v)
	}
}

// Backward multiplies the gradient by 1−tanh²(x).
func (t *Tanh) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRaw(grad.R, grad.C)
	tanhBack(out.V, t.lastOut.V, grad.V)
	return out
}

// Params returns nil: Tanh has no trainable parameters.
func (t *Tanh) Params() []*Param { return nil }

// Dropout randomly zeroes activations during training with probability P,
// scaling survivors by 1/(1−P) (inverted dropout). At inference it is the
// identity.
type Dropout struct {
	P    float64
	rng  *tensor.RNG
	mask []float64
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(p float64, rng *tensor.RNG) *Dropout {
	return &Dropout{P: p, rng: rng}
}

func dropoutApply(dst, src, mask []float64, rng *tensor.RNG, keep, inv float64) {
	for i, v := range src {
		if rng.Float64() < keep {
			mask[i] = inv
			dst[i] = v * inv
		} else {
			mask[i] = 0
			dst[i] = 0
		}
	}
}

// Forward applies the dropout mask when train is true. Inference is the
// identity and touches no layer state (re-entrant).
func (d *Dropout) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train {
		return x
	}
	if d.P <= 0 {
		d.mask = nil
		return x
	}
	out := ws.GetRaw(x.R, x.C)
	if len(d.mask) != x.Len() {
		d.mask = make([]float64, x.Len())
	}
	keep := 1 - d.P
	inv := 1 / keep
	dropoutApply(out.V, x.V, d.mask, d.rng, keep, inv)
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Mat) *tensor.Mat {
	if d.mask == nil {
		return grad
	}
	out := ws.GetRaw(grad.R, grad.C)
	for i, m := range d.mask {
		out.V[i] = grad.V[i] * m
	}
	return out
}

// Params returns nil: Dropout has no trainable parameters.
func (d *Dropout) Params() []*Param { return nil }
