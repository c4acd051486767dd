package nn

import (
	"math"

	"odin/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	m map[*Param]*tensor.Mat
	v map[*Param]*tensor.Mat
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Mat)
		a.v = make(map[*Param]*tensor.Mat)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.R, p.W.C)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.R, p.W.C)
		}
		v := a.v[p]
		for i, g := range p.Grad.V {
			if a.WeightDecay > 0 {
				g += a.WeightDecay * p.W.V[i]
			}
			m.V[i] = a.Beta1*m.V[i] + (1-a.Beta1)*g
			v.V[i] = a.Beta2*v.V[i] + (1-a.Beta2)*g*g
			mh := m.V[i] / bc1
			vh := v.V[i] / bc2
			p.W.V[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ClipGrads rescales all gradients so their global L2 norm is at most
// maxNorm; GAN training uses this to keep adversarial updates stable.
func ClipGrads(params []*Param, maxNorm float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.V {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
}
