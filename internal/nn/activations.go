package nn

import (
	"math"

	"odin/internal/tensor"
)

// float constrains the element-wise helpers to the two storage dtypes the
// tensor backends expose. Activation math runs natively in the activation
// dtype (transcendentals round-trip through float64, which is exact for
// float32 inputs), so a layer's output dtype always follows its input.
type float interface{ ~float32 | ~float64 }

// Element-wise transforms shared by the layer Forwards (dst and src
// distinct) and, for the two activations the kernels do not apply
// themselves, the fused inference path (dst == src: the applyRows methods,
// see rowAct).

func reluInto[T float](dst, src []T) {
	for i, x := range src {
		if x < 0 {
			dst[i] = 0
		} else {
			dst[i] = x
		}
	}
}

func leakyReLUInto[T float](dst, src []T, alpha T) {
	for i, x := range src {
		if x < 0 {
			dst[i] = x * alpha
		} else {
			dst[i] = x
		}
	}
}

func sigmoidInto[T float](dst, src []T) {
	for i, x := range src {
		dst[i] = T(1 / (1 + math.Exp(-float64(x))))
	}
}

func tanhInto[T float](dst, src []T) {
	for i, x := range src {
		dst[i] = T(math.Tanh(float64(x)))
	}
}

// rowRun returns rows [r0, r1) of m's storage: one of the two slices, the
// other nil.
func rowRun(m *tensor.Mat, r0, r1 int) ([]float64, []float32) {
	if m.V32 != nil {
		return nil, m.V32[r0*m.C : r1*m.C]
	}
	return m.V[r0*m.C : r1*m.C], nil
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
	out := ws.GetRawOf(x.DType(), x.R, x.C)
	if x.V32 != nil {
		reluInto(out.V32, x.V32)
	} else {
		reluInto(out.V, x.V)
	}
	return out
}

func (r *ReLU) kernelAct() tensor.Act { return tensor.Act{Kind: tensor.ActReLU} }

func reluBack[T float](dst, in, g []T) {
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
	out := ws.GetRawOf(grad.DType(), grad.R, grad.C)
	if grad.V32 != nil {
		reluBack(out.V32, r.lastIn.V32, grad.V32)
	} else {
		reluBack(out.V, r.lastIn.V, grad.V)
	}
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
	out := ws.GetRawOf(x.DType(), x.R, x.C)
	if x.V32 != nil {
		leakyReLUInto(out.V32, x.V32, float32(l.Alpha))
	} else {
		leakyReLUInto(out.V, x.V, l.Alpha)
	}
	return out
}

func (l *LeakyReLU) kernelAct() tensor.Act {
	return tensor.Act{Kind: tensor.ActLeakyReLU, Alpha: l.Alpha}
}

func leakyBack[T float](dst, in, g []T, alpha T) {
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
	out := ws.GetRawOf(grad.DType(), grad.R, grad.C)
	if grad.V32 != nil {
		leakyBack(out.V32, l.lastIn.V32, grad.V32, float32(l.Alpha))
	} else {
		leakyBack(out.V, l.lastIn.V, grad.V, l.Alpha)
	}
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
	out := ws.GetRawOf(x.DType(), x.R, x.C)
	if x.V32 != nil {
		sigmoidInto(out.V32, x.V32)
	} else {
		sigmoidInto(out.V, x.V)
	}
	if train {
		s.lastOut = out
	}
	return out
}

func (s *Sigmoid) applyRows(m *tensor.Mat, r0, r1 int) {
	v, v32 := rowRun(m, r0, r1)
	sigmoidInto(v, v)
	sigmoidInto(v32, v32)
}

func sigmoidBack[T float](dst, y, g []T) {
	for i, v := range y {
		dst[i] = g[i] * v * (1 - v)
	}
}

// Backward multiplies the gradient by σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRawOf(grad.DType(), grad.R, grad.C)
	if grad.V32 != nil {
		sigmoidBack(out.V32, s.lastOut.V32, grad.V32)
	} else {
		sigmoidBack(out.V, s.lastOut.V, grad.V)
	}
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
	out := ws.GetRawOf(x.DType(), x.R, x.C)
	if x.V32 != nil {
		tanhInto(out.V32, x.V32)
	} else {
		tanhInto(out.V, x.V)
	}
	if train {
		t.lastOut = out
	}
	return out
}

func (t *Tanh) applyRows(m *tensor.Mat, r0, r1 int) {
	v, v32 := rowRun(m, r0, r1)
	tanhInto(v, v)
	tanhInto(v32, v32)
}

func tanhBack[T float](dst, y, g []T) {
	for i, v := range y {
		dst[i] = g[i] * (1 - v*v)
	}
}

// Backward multiplies the gradient by 1−tanh²(x).
func (t *Tanh) Backward(grad *tensor.Mat) *tensor.Mat {
	out := ws.GetRawOf(grad.DType(), grad.R, grad.C)
	if grad.V32 != nil {
		tanhBack(out.V32, t.lastOut.V32, grad.V32)
	} else {
		tanhBack(out.V, t.lastOut.V, grad.V)
	}
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

func dropoutApply[T float](dst, src []T, mask []float64, rng *tensor.RNG, keep, inv float64) {
	for i, v := range src {
		if rng.Float64() < keep {
			mask[i] = inv
			dst[i] = v * T(inv)
		} else {
			mask[i] = 0
			dst[i] = 0
		}
	}
}

// Forward applies the dropout mask when train is true. Inference is the
// identity and touches no layer state (re-entrant). The mask itself stays
// float64 on both backends so the RNG stream consumption is identical.
func (d *Dropout) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train {
		return x
	}
	if d.P <= 0 {
		d.mask = nil
		return x
	}
	out := ws.GetRawOf(x.DType(), x.R, x.C)
	if len(d.mask) != x.Len() {
		d.mask = make([]float64, x.Len())
	}
	keep := 1 - d.P
	inv := 1 / keep
	if x.V32 != nil {
		dropoutApply(out.V32, x.V32, d.mask, d.rng, keep, inv)
	} else {
		dropoutApply(out.V, x.V, d.mask, d.rng, keep, inv)
	}
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Mat) *tensor.Mat {
	if d.mask == nil {
		return grad
	}
	out := ws.GetRawOf(grad.DType(), grad.R, grad.C)
	if grad.V32 != nil {
		for i, m := range d.mask {
			out.V32[i] = grad.V32[i] * float32(m)
		}
	} else {
		for i, m := range d.mask {
			out.V[i] = grad.V[i] * m
		}
	}
	return out
}

// Params returns nil: Dropout has no trainable parameters.
func (d *Dropout) Params() []*Param { return nil }
