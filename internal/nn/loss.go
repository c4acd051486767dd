package nn

import (
	"math"

	"odin/internal/tensor"
)

const lossEps = 1e-7

func lossGradFor(pred *tensor.Mat) *tensor.Mat { return ws.GetRaw(pred.R, pred.C) }

func mseImpl(pred, target, grad []float64) float64 {
	n := float64(len(pred))
	var loss float64
	for i, p := range pred {
		d := p - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n
}

// MSE returns the mean squared error over all elements and its gradient
// with respect to pred.
func MSE(pred, target *tensor.Mat) (float64, *tensor.Mat) {
	if pred.R != target.R || pred.C != target.C {
		panic("nn: mse shape mismatch")
	}
	grad := lossGradFor(pred)
	return mseImpl(pred.V, target.V, grad.V), grad
}

func bceImpl(pred, target, grad []float64) float64 {
	n := float64(len(pred))
	var loss float64
	for i, pv := range pred {
		p := clamp(pv, lossEps, 1-lossEps)
		t := target[i]
		loss += -(t*math.Log(p) + (1-t)*math.Log(1-p))
		grad[i] = (p - t) / (p * (1 - p)) / n
	}
	return loss / n
}

// BCE returns the binary cross-entropy between probabilities pred∈(0,1) and
// targets∈[0,1], averaged over all elements, plus the gradient w.r.t. pred.
// This is the reconstruction loss of Equation 5 and the discriminator loss
// of Equations 3–4 when the network ends in a Sigmoid.
func BCE(pred, target *tensor.Mat) (float64, *tensor.Mat) {
	if pred.R != target.R || pred.C != target.C {
		panic("nn: bce shape mismatch")
	}
	grad := lossGradFor(pred)
	return bceImpl(pred.V, target.V, grad.V), grad
}

func bceScalarImpl(pred []float64, target float64, grad []float64) float64 {
	n := float64(len(pred))
	var loss float64
	for i, pv := range pred {
		p := clamp(pv, lossEps, 1-lossEps)
		loss += -(target*math.Log(p) + (1-target)*math.Log(1-p))
		grad[i] = (p - target) / (p * (1 - p)) / n
	}
	return loss / n
}

// BCEScalarTarget is BCE against a constant target (all-ones or all-zeros),
// the common case for GAN discriminator updates.
func BCEScalarTarget(pred *tensor.Mat, target float64) (float64, *tensor.Mat) {
	grad := lossGradFor(pred)
	return bceScalarImpl(pred.V, target, grad.V), grad
}

// Softmax returns the softmax of a logit row.
func Softmax(row []float64) []float64 { return softmax(row) }

// SoftmaxInto writes softmax(row) into out (len(out) == len(row)) without
// allocating — the single source of the softmax op order, so callers that
// avoid the allocating Softmax still get bit-identical probabilities.
func SoftmaxInto(out, row []float64) { softmaxInto(out, row) }

func softmax(row []float64) []float64 {
	out := make([]float64, len(row))
	softmaxInto(out, row)
	return out
}

func softmaxInto(out, row []float64) {
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// SigmoidScalar exposes the logistic function for single scores.
func SigmoidScalar(z float64) float64 { return sigmoid(z) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
