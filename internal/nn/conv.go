package nn

import (
	"fmt"
	"math"

	"odin/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major C×H×W rows. A sample's
// output, flattened OutC×OutH×OutW, is weight × its patch window (a row per
// kernel tap, a column per output pixel), but the window is never built:
// training and inference alike rewrite a sample once into phase planes in
// which every tap is a contiguous run, and the products read the window's
// rows through a tap-offset table (convs.go).
type Conv2D struct {
	InC, InH, InW  int
	OutC           int
	K, Stride, Pad int
	OutH, OutW     int

	Weight *Param // OutC × (K*K*InC)
	Bias   *Param // 1 × OutC

	// The layout, fixed by the geometry: per channel phases² planes of
	// planeH × planeW, where in them patch row k begins, and the pool
	// inference draws its planes from (convs.go).
	phases         int
	planeH, planeW int
	taps           tensor.Taps
	planes         *tensor.Pool

	// trainPlanes holds the phase planes of the last training forward, a
	// row per sample: the backward cache, retained across steps and
	// reallocated (zeroed: the border) only when the batch size changes.
	trainPlanes *tensor.Mat
}

// NewConv2D builds a conv layer. Output spatial dims follow the standard
// formula out = (in + 2*pad - k)/stride + 1, rounded down: a geometry that
// does not divide evenly is accepted, and the input rows and columns past
// the last tap of the last output position are never read (the served
// 48-wide frame at stride 2 is such a geometry and loses nothing: its last
// column is the last tap of the last output column). Only an empty output
// panics.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: conv2d produces empty output for input %dx%dx%d k=%d s=%d p=%d", inC, inH, inW, k, stride, pad))
	}
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		Weight: newParam("conv.W", outC, k*k*inC),
		Bias:   newParam("conv.b", 1, outC),
	}
	fanIn := float64(k * k * inC)
	bound := math.Sqrt(6.0 / fanIn)
	rng.FillUniform(c.Weight.W, -bound, bound)
	c.planLayout()
	return c
}

// OutSize returns the flattened output width OutC*OutH*OutW.
func (c *Conv2D) OutSize() int { return c.OutC * c.OutH * c.OutW }

// InSize returns the flattened input width InC*InH*InW.
func (c *Conv2D) InSize() int { return c.InC * c.InH * c.InW }

// patchRows returns the patch-window height K*K*InC, the number of taps.
func (c *Conv2D) patchRows() int { return c.K * c.K * c.InC }

// tapRange returns the run [o0, o1) of output positions along one axis whose
// kernel tap k lands inside the input: 0 <= o*Stride+k-Pad < in. Outside it
// the tap reads padding.
func (c *Conv2D) tapRange(k, in, out int) (o0, o1 int) {
	if lo := c.Pad - k; lo > 0 {
		o0 = (lo + c.Stride - 1) / c.Stride
	}
	if hi := in - 1 + c.Pad - k; hi >= 0 {
		o1 = min(hi/c.Stride+1, out)
	}
	return min(o0, o1), o1
}

// Forward convolves the batch sample by sample, split across the workers: a
// one-layer run of forwardConvs. Inference writes no layer state, so
// concurrent inference is race-free. Training splits each sample into its
// row of the retained planes, which Backward reads.
func (c *Conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	st := convStage{c: c}
	if train {
		if p := c.trainPlanes; p == nil || p.R != x.R {
			c.trainPlanes = tensor.New(x.R, c.planesLen())
		}
		st.keep = c.trainPlanes
		allocGrads(c.Weight, c.Bias)
	}
	return forwardConvs([]convStage{st}, x, nil)
}

// Backward accumulates the weight and bias gradients and returns the input
// gradient, out of grad's rows and the planes the training forward kept
// (convGrads).
func (c *Conv2D) Backward(grad *tensor.Mat) *tensor.Mat {
	// The kernels index the planes by grad's shape on trust. Each check is a
	// programmer-error invariant, not an input error.
	switch p := c.trainPlanes; {
	case p == nil: // Backward belongs to a training Forward
		panic("nn: conv2d backward without a training forward")
	case grad.R != p.R: // one gradient row per sample forwarded
		panic(fmt.Sprintf("nn: conv2d gradient has %d rows, the training forward had %d", grad.R, p.R))
	case grad.C != c.OutSize(): // one gradient per output element
		panic(fmt.Sprintf("nn: conv2d gradient width %d, want %d", grad.C, c.OutSize()))
	}
	dW := ws.GetRaw(c.OutC, c.patchRows())
	dx := ws.Get(grad.R, c.InSize())
	convGrads(c, grad, dW, dx)
	c.Weight.Grad.Add(dW)
	ws.Put(dW)
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }
