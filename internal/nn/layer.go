// Package nn is a from-scratch reverse-mode neural-network library used as
// the training substrate for every model in the repository: autoencoders,
// adversarial autoencoders, the DA-GAN, the YOLO-style grid detectors and
// the lightweight query filters. It supports dense and convolutional layers,
// batch normalisation, the ReLU, LeakyReLU and Sigmoid activations, BCE and
// MSE losses and the Adam optimizer.
//
// Data layout: a batch is a tensor.Mat whose rows are flattened examples.
// Spatial layers (Conv2D) carry their own (C, H, W) input shape
// and interpret each row as channel-major C×H×W.
package nn

import (
	"fmt"

	"odin/internal/tensor"
)

// Param is one trainable parameter tensor together with its gradient
// accumulator. Optimizers update W in place using Grad.
type Param struct {
	Name string
	W    *tensor.Mat
	Grad *tensor.Mat
}

func newParam(name string, r, c int) *Param {
	return &Param{Name: name, W: tensor.New(r, c), Grad: tensor.New(r, c)}
}

// Layer is a differentiable network stage. Forward consumes a batch and
// produces a batch; Backward consumes the gradient of the loss with respect
// to the layer output and returns the gradient with respect to the layer
// input, accumulating parameter gradients along the way.
//
// Backward must follow a Forward with train=true on the same layer.
// Inference Forwards (train=false) write no layer state at all — they draw
// any scratch from the workspace pool — so any number of goroutines may run
// inference concurrently on a shared network; this is what lets N streams
// share one model set in the sharded pipeline. BatchNorm additionally
// supports an inference-mode backward from running statistics alone.
type Layer interface {
	Forward(x *tensor.Mat, train bool) *tensor.Mat
	Backward(grad *tensor.Mat) *tensor.Mat
	Params() []*Param
}

// Network is a sequential container of layers. It itself satisfies Layer,
// so networks can be nested.
type Network struct {
	Name   string
	Layers []Layer

	// fwdIn/fwdOuts record the most recent training forward pass so
	// Backward can hand each intermediate back to the workspace pool the
	// moment its consumers are done with it.
	fwdIn   *tensor.Mat
	fwdOuts []*tensor.Mat
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{Name: name, Layers: layers}
}

// An activation that follows a Dense or Conv2D layer is folded into that
// layer at inference, which needs no backward caches: kernelAct is one the
// kernels apply as they store each finished sum (ReLU, LeakyReLU — blends),
// rowAct one applied in place to rows [r0, r1) of the layer's output before
// they leave the cache (Sigmoid).
type kernelAct interface {
	kernelAct() tensor.Act
}

type rowAct interface {
	applyRows(m *tensor.Mat, r0, r1 int)
}

// fusedAfter returns the activation inference folds into layers[i], if
// layers[i+1] is one, and how many layers that takes care of (0 or 1).
func fusedAfter(layers []Layer, i int) (act tensor.Act, rows rowAct, fused int) {
	if i+1 >= len(layers) {
		return act, nil, 0
	}
	switch a := layers[i+1].(type) {
	case kernelAct:
		return a.kernelAct(), nil, 1
	case rowAct:
		return act, a, 1
	}
	return act, nil, 0
}

// Forward runs the batch through every layer in order. A training pass
// records each intermediate so Backward can recycle it; an inference pass
// keeps none (see infer).
func (n *Network) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		n.fwdIn = x
		n.fwdOuts = n.fwdOuts[:0]
		for _, l := range n.Layers {
			x = l.Forward(x, true)
			n.fwdOuts = append(n.fwdOuts, x)
		}
		return x
	}
	return n.infer(x, 0, false)
}

// PredictRows is Predict for a batch whose rows lie apart — frames still in
// their images. A network that opens with a convolution reads them where
// they lie; any other has them stacked into a batch first. A row of the
// wrong width panics before any kernel sees it.
func (n *Network) PredictRows(rows [][]float64) *tensor.Mat {
	if len(n.Layers) > 0 {
		if _, ok := n.Layers[0].(*Conv2D); ok {
			stages, next := convRun(n.Layers, 0)
			return n.infer(forwardConvs(stages, nil, rows), next, true)
		}
	}
	x := ws.GetRaw(len(rows), len(rows[0]))
	for i, r := range rows {
		x.SetRow(i, r)
	}
	return n.infer(x, 0, true)
}

// infer runs cur through layers[i:] in inference mode: a run of
// convolutions goes a sample at a time through all of its layers
// (forwardConvs), activations are folded into the Dense or Conv2D before
// them, and each intermediate is recycled as soon as the next layer has
// consumed it — cur itself only when the caller says it is owned.
func (n *Network) infer(cur *tensor.Mat, i int, owned bool) *tensor.Mat {
	for i < len(n.Layers) {
		var next *tensor.Mat
		switch l := n.Layers[i].(type) {
		case *Conv2D:
			var stages []convStage
			stages, i = convRun(n.Layers, i)
			next = forwardConvs(stages, cur, nil)
		case *Dense:
			act, rows, fused := fusedAfter(n.Layers, i)
			next = l.forwardAct(cur, act)
			if rows != nil {
				rows.applyRows(next, 0, next.R)
			}
			i += 1 + fused
		default:
			next = l.Forward(cur, false)
			i++
		}
		if next != cur && owned {
			ws.Put(cur)
		}
		if next != cur {
			owned = true
		}
		cur = next
	}
	return cur
}

// Backward propagates grad through the layers in reverse order and returns
// the gradient with respect to the network input. Intermediates of the
// recorded forward pass and gradients produced by inner layers are handed
// back to the workspace pool once their last consumer has run; the incoming
// grad and the returned gradient stay owned by the caller.
func (n *Network) Backward(grad *tensor.Mat) *tensor.Mat {
	outs := n.fwdOuts
	if len(outs) != len(n.Layers) {
		outs = nil
	}
	var final *tensor.Mat
	if outs != nil {
		final = outs[len(outs)-1]
	}
	owned := false
	for i := len(n.Layers) - 1; i >= 0; i-- {
		next := n.Layers[i].Backward(grad)
		if next != grad {
			if owned {
				ws.Put(grad)
			}
			owned = true
		}
		grad = next
		if outs != nil && i < len(n.Layers)-1 {
			// The output of layer i was consumed by layer i+1's backward and
			// (for Sigmoid) by layer i's own; both are done now. Skip
			// passthrough aliases and anything the caller can still see.
			out := outs[i]
			in := n.fwdIn
			if i > 0 {
				in = outs[i-1]
			}
			if out != in && out != final {
				ws.Put(out)
			}
			outs[i] = nil
		}
	}
	n.fwdOuts = n.fwdOuts[:0]
	n.fwdIn = nil
	return grad
}

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar weights.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// String summarises the network for logs.
func (n *Network) String() string {
	return fmt.Sprintf("%s(%d layers, %d params)", n.Name, len(n.Layers), n.NumParams())
}

// Predict is Forward in inference mode (train=false).
func (n *Network) Predict(x *tensor.Mat) *tensor.Mat { return n.Forward(x, false) }
