package nn

import (
	"math"

	"odin/internal/tensor"
)

// BatchNorm normalises each feature column over the batch during training
// and tracks running statistics for inference. The paper's heavyweight YOLO
// baseline uses batch normalisation; the pruned YOLO-Specialized models drop
// it (§5.2), which this substrate mirrors.
type BatchNorm struct {
	Dim      int
	Eps      float64
	Momentum float64

	Gamma *Param
	Beta  *Param

	RunMean []float64
	RunVar  []float64

	// Caches for backward, plus per-call statistics scratch retained across
	// steps so a training step allocates nothing.
	lastXHat *tensor.Mat
	lastStd  []float64
	lastN    int
	mean     []float64
	variance []float64
	sumG     []float64
	sumGX    []float64
}

// NewBatchNorm builds a batch-normalisation layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	b := &BatchNorm{
		Dim:      dim,
		Eps:      1e-5,
		Momentum: 0.9,
		Gamma:    newParam("bn.gamma", 1, dim),
		Beta:     newParam("bn.beta", 1, dim),
		RunMean:  make([]float64, dim),
		RunVar:   make([]float64, dim),
		lastStd:  make([]float64, dim),
		mean:     make([]float64, dim),
		variance: make([]float64, dim),
		sumG:     make([]float64, dim),
		sumGX:    make([]float64, dim),
	}
	b.Gamma.W.Fill(1)
	for i := range b.RunVar {
		b.RunVar[i] = 1
	}
	return b
}

// bnAffine applies the precomputed y = scale*x + shift rows (the inference
// hot path: two flops per element).
func bnAffine(xV, outV, scale, shift []float64, dim, rows int) {
	for i := 0; i < rows; i++ {
		src := xV[i*dim : (i+1)*dim]
		dst := outV[i*dim : (i+1)*dim]
		for j, v := range src {
			dst[j] = scale[j]*v + shift[j]
		}
	}
}

// bnBatchStats accumulates per-column mean and variance.
func bnBatchStats(xV []float64, dim, rows int, mean, variance []float64) {
	for j := range mean {
		mean[j] = 0
		variance[j] = 0
	}
	for i := 0; i < rows; i++ {
		for j, v := range xV[i*dim : (i+1)*dim] {
			mean[j] += v
		}
	}
	n := float64(rows)
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < rows; i++ {
		for j, v := range xV[i*dim : (i+1)*dim] {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}
}

// bnNormalize writes xhat and the affine output.
func bnNormalize(xV, xhV, outV, mean, std, gamma, beta []float64, dim, rows int) {
	for i := 0; i < rows; i++ {
		src := xV[i*dim : (i+1)*dim]
		xh := xhV[i*dim : (i+1)*dim]
		dst := outV[i*dim : (i+1)*dim]
		for j := range src {
			h := (src[j] - mean[j]) / std[j]
			xh[j] = h
			dst[j] = gamma[j]*h + beta[j]
		}
	}
}

// Forward normalises the batch with batch statistics (train) or running
// statistics (inference). Inference draws its scratch from the workspace
// pool and writes no layer state, so concurrent inference is race-free.
func (b *BatchNorm) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != b.Dim {
		panic("nn: batchnorm width mismatch")
	}
	out := ws.GetRaw(x.R, x.C)
	if !train || x.R == 1 {
		// Precompute the affine form y = scale*x + shift of the running-stat
		// normalisation so the row loop is two flops per element.
		sc := ws.GetRaw(2, b.Dim)
		scale := sc.Row(0)
		shift := sc.Row(1)
		for j := 0; j < b.Dim; j++ {
			s := b.Gamma.W.V[j] / math.Sqrt(b.RunVar[j]+b.Eps)
			scale[j] = s
			shift[j] = b.Beta.W.V[j] - s*b.RunMean[j]
		}
		bnAffine(x.V, out.V, scale, shift, b.Dim, x.R)
		ws.Put(sc)
		if train {
			b.lastXHat = nil // single-row training backward uses running stats
		}
		return out
	}
	mean, variance := b.mean, b.variance
	bnBatchStats(x.V, b.Dim, x.R, mean, variance)
	for j := range variance {
		b.lastStd[j] = math.Sqrt(variance[j] + b.Eps)
	}
	if b.lastXHat == nil || b.lastXHat.R != x.R || b.lastXHat.C != x.C {
		b.lastXHat = tensor.New(x.R, x.C)
	}
	bnNormalize(x.V, b.lastXHat.V, out.V, mean, b.lastStd, b.Gamma.W.V, b.Beta.W.V, b.Dim, x.R)
	b.lastN = x.R
	for j := range mean {
		b.RunMean[j] = b.Momentum*b.RunMean[j] + (1-b.Momentum)*mean[j]
		b.RunVar[j] = b.Momentum*b.RunVar[j] + (1-b.Momentum)*variance[j]
	}
	return out
}

// bnScaleRows is the inference-mode backward: dx = g * scale, column-wise.
func bnScaleRows(gV, dxV, scale []float64, dim, rows int) {
	for i := 0; i < rows; i++ {
		src := gV[i*dim : (i+1)*dim]
		dst := dxV[i*dim : (i+1)*dim]
		for j, g := range src {
			dst[j] = g * scale[j]
		}
	}
}

// bnReduce accumulates the backward column sums Σg and Σg·x̂ and folds them
// into the parameter gradients.
func bnReduce(gV, xhV, sumG, sumGX, betaG, gammaG []float64, dim, rows int) {
	for j := 0; j < dim; j++ {
		sumG[j] = 0
		sumGX[j] = 0
	}
	for i := 0; i < rows; i++ {
		g := gV[i*dim : (i+1)*dim]
		xh := xhV[i*dim : (i+1)*dim]
		for j := range g {
			gj := g[j]
			xj := xh[j]
			sumG[j] += gj
			sumGX[j] += gj * xj
			betaG[j] += gj
			gammaG[j] += gj * xj
		}
	}
}

// bnInputGrad writes the standard batch-norm input gradient.
func bnInputGrad(gV, xhV, dxV, gamma, std, sumG, sumGX []float64, n float64, dim, rows int) {
	for i := 0; i < rows; i++ {
		g := gV[i*dim : (i+1)*dim]
		xh := xhV[i*dim : (i+1)*dim]
		dst := dxV[i*dim : (i+1)*dim]
		for j := range g {
			dst[j] = gamma[j] / (n * std[j]) *
				(n*g[j] - sumG[j] - xh[j]*sumGX[j])
		}
	}
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm) Backward(grad *tensor.Mat) *tensor.Mat {
	dx := ws.GetRaw(grad.R, grad.C)
	if b.lastXHat == nil {
		// Inference-mode backward (running stats are constants).
		scale := b.sumG[:b.Dim]
		for j := 0; j < b.Dim; j++ {
			scale[j] = b.Gamma.W.V[j] / math.Sqrt(b.RunVar[j]+b.Eps)
		}
		bnScaleRows(grad.V, dx.V, scale, b.Dim, grad.R)
		return dx
	}
	n := float64(b.lastN)
	bnReduce(grad.V, b.lastXHat.V, b.sumG, b.sumGX, b.Beta.Grad.V, b.Gamma.Grad.V, b.Dim, grad.R)
	bnInputGrad(grad.V, b.lastXHat.V, dx.V, b.Gamma.W.V, b.lastStd, b.sumG, b.sumGX, n, b.Dim, grad.R)
	return dx
}

// Params returns the scale and shift parameters.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
