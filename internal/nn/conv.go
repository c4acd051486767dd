package nn

import (
	"fmt"
	"math"

	"odin/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major C×H×W rows. A sample's
// output, flattened OutC×OutH×OutW, is weight × its patch window (a row per
// kernel tap, a column per output pixel). Training builds that window —
// im2col into the whole-batch patch matrix Backward multiplies by, one large
// multiply per gradient. Inference never does: a sample is rewritten once
// into phase planes in which every tap is a contiguous run, and the product
// reads its rows through a tap-offset table (convs.go). The compute dtype
// follows the input batch (float32 batches read the weight shadows).
type Conv2D struct {
	InC, InH, InW  int
	OutC           int
	K, Stride, Pad int
	OutH, OutW     int

	Weight *Param // OutC × (K*K*InC)
	Bias   *Param // 1 × OutC

	// cols is the whole-batch patch matrix of the last training forward,
	// (K*K*InC) × (R*OutH*OutW): the backward cache, retained across steps
	// and reallocated only when the batch size or dtype changes.
	cols *tensor.Mat

	// The inference layout, fixed by the geometry: per channel phases²
	// planes of planeH × planeW, where in them patch row k begins, and the
	// pool the planes are drawn from (convs.go).
	phases         int
	planeH, planeW int
	taps           tensor.Taps
	planes         *tensor.Pool
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

// patchRows returns the patch-matrix height K*K*InC.
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

// im2colInto unrolls one flattened sample into the column block
// [off, off+OutH*OutW) of the batched patch matrix (colsV with row stride
// colsC). Padded positions are written as zeros because the workspace is
// reused across steps. Padding is resolved once per kernel tap, not per
// element: inside the tap's valid rectangle every output row is one strided
// run of an input row — copied at stride 1, de-interleaved by tensor.Gather2
// at stride 2 — and everything outside it is cleared.
func im2colInto[T float](c *Conv2D, row []T, colsV []T, colsC, off int) {
	kern := tensor.KernelsOf[T]()
	spatial := c.OutH * c.OutW
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			oy0, oy1 := c.tapRange(ky, c.InH, c.OutH)
			for kx := 0; kx < c.K; kx++ {
				base := ((ch*c.K+ky)*c.K + kx) * colsC
				crow := colsV[base+off : base+off+spatial]
				ox0, ox1 := c.tapRange(kx, c.InW, c.OutW)
				if ox0 == ox1 || oy0 == oy1 {
					clear(crow)
					continue
				}
				clear(crow[:oy0*c.OutW])
				clear(crow[oy1*c.OutW:])
				rect := crow[oy0*c.OutW : oy1*c.OutW]
				if ox0 > 0 || ox1 < c.OutW {
					for o := 0; o < len(rect); o += c.OutW {
						clear(rect[o : o+ox0])
						clear(rect[o+ox1 : o+c.OutW])
					}
				}
				n, si := ox1-ox0, chOff+(oy0*c.Stride+ky-c.Pad)*c.InW+ox0*c.Stride+kx-c.Pad
				if c.Stride == 2 {
					kern.Gather2(rect[ox0:], row[si:], n, oy1-oy0, c.OutW, 2*c.InW)
					continue
				}
				for o := ox0; o < len(rect); o, si = o+c.OutW, si+c.Stride*c.InW {
					in, src := rect[o:o+n], row[si:si+(n-1)*c.Stride+1]
					if c.Stride == 1 {
						copy(in, src)
						continue
					}
					for i := range in {
						in[i] = src[i*c.Stride]
					}
				}
			}
		}
	}
}

// col2imInto scatters the column block [off, off+OutH*OutW) of a patch
// gradient back into one flattened sample gradient.
func col2imInto[T float](c *Conv2D, colsV []T, colsC, off int, dst []T) {
	spatial := c.OutH * c.OutW
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				base := ((ch*c.K+ky)*c.K + kx) * colsC
				crow := colsV[base+off : base+off+spatial]
				idx := 0
				for oy := 0; oy < c.OutH; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= c.InH {
						idx += c.OutW
						continue
					}
					rbase := chOff + iy*c.InW
					for ox := 0; ox < c.OutW; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix >= 0 && ix < c.InW {
							dst[rbase+ix] += crow[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// convRegroupBack transposes per-sample gradient rows gradV back into the
// channel-major layout gV (row stride gC) used by the gradient matmuls.
func convRegroupBack[T float](gV, gradV []T, nOutC, spatial, gC int, n0, n1 int) {
	gradW := nOutC * spatial
	for n := n0; n < n1; n++ {
		grow := gradV[n*gradW : (n+1)*gradW]
		for oc := 0; oc < nOutC; oc++ {
			copy(gV[oc*gC+n*spatial:oc*gC+(n+1)*spatial], grow[oc*spatial:(oc+1)*spatial])
		}
	}
}

// Forward convolves the batch sample by sample, split across the workers.
// Inference is a one-layer run of the window-free path (forwardConvs) and
// writes no layer state, so concurrent inference is race-free. Training
// unrolls each sample into its columns of the retained whole-batch patch
// matrix and multiplies that window into the sample's output row, channel
// bias included, while it is still in cache.
func (c *Conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if !train {
		return forwardConvs([]convStage{{c: c}}, x, nil, x.DType())
	}
	if x.C != c.InSize() {
		panic(fmt.Sprintf("nn: conv2d input width %d, want %d", x.C, c.InSize()))
	}
	dt := x.DType()
	r := x.R
	spatial := c.OutH * c.OutW
	rows := c.patchRows()
	if c.cols == nil || c.cols.R != rows || c.cols.C != r*spatial || c.cols.DType() != dt {
		c.cols = tensor.NewOf(dt, rows, r*spatial)
	}
	cols := c.cols
	wt, bias := c.Weight.W, c.Bias.W
	if dt == tensor.F32 {
		wt, bias = c.Weight.W32(), c.Bias.W32()
	}
	out := ws.GetRawOf(dt, r, c.OutSize())
	tensor.Parallel(r, 2*r*c.OutC*rows*spatial, func(n0, n1 int) {
		for n := n0; n < n1; n++ {
			if dt == tensor.F32 {
				im2colInto(c, x.Row32(n), cols.V32, cols.C, n*spatial)
			} else {
				im2colInto(c, x.Row(n), cols.V, cols.C, n*spatial)
			}
			tensor.MatMulWindowInto(out, n, wt, cols, n*spatial, bias)
		}
	})
	return out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient. The whole batch is regrouped into one channel-major gradient
// matrix so the weight gradient is a single G×patchesᵀ multiply and the
// patch gradient a single Wᵀ×G multiply. Matmuls run in the gradient's
// dtype; the results accumulate into the float64 master gradients.
func (c *Conv2D) Backward(grad *tensor.Mat) *tensor.Mat {
	dt := grad.DType()
	r := grad.R
	spatial := c.OutH * c.OutW
	rows := c.patchRows()

	// Regroup grad rows channel-major (the transpose of the forward scatter).
	g := ws.GetRawOf(dt, c.OutC, r*spatial)
	if dt == tensor.F32 {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroupBack(g.V32, grad.V32, c.OutC, spatial, g.C, n0, n1)
		})
	} else {
		tensor.Parallel(r, r*c.OutC*spatial, func(n0, n1 int) {
			convRegroupBack(g.V, grad.V, c.OutC, spatial, g.C, n0, n1)
		})
	}

	// Bias gradient: per-channel sum over every sample and position,
	// accumulated in float64 on both backends.
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		if dt == tensor.F32 {
			for _, v := range g.Row32(oc) {
				s += float64(v)
			}
		} else {
			for _, v := range g.Row(oc) {
				s += v
			}
		}
		c.Bias.Grad.V[oc] += s
	}

	// Weight gradient: G × patchesᵀ across the whole batch at once.
	dW := ws.GetRawOf(dt, c.OutC, rows)
	tensor.MatMulBTInto(dW, g, c.cols)
	c.Weight.Grad.Add(dW)
	ws.Put(dW)

	wt := c.Weight.W
	if dt == tensor.F32 {
		wt = c.Weight.W32()
	}

	// Input gradient: Wᵀ × G, scattered back per sample by col2im.
	dCols := ws.GetRawOf(dt, rows, r*spatial)
	tensor.MatMulATInto(dCols, wt, g)
	dx := ws.GetOf(dt, r, c.InSize())
	if dt == tensor.F32 {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				col2imInto(c, dCols.V32, dCols.C, n*spatial, dx.Row32(n))
			}
		})
	} else {
		tensor.Parallel(r, r*rows*spatial, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				col2imInto(c, dCols.V, dCols.C, n*spatial, dx.Row(n))
			}
		})
	}
	ws.Put(g, dCols)
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Upsample2D performs nearest-neighbour spatial upsampling by an integer
// factor, used by decoders instead of transposed convolutions.
type Upsample2D struct {
	InC, InH, InW int
	Scale         int
	OutH, OutW    int
}

// NewUpsample2D builds a nearest-neighbour upsampler.
func NewUpsample2D(inC, inH, inW, scale int) *Upsample2D {
	return &Upsample2D{
		InC: inC, InH: inH, InW: inW, Scale: scale,
		OutH: inH * scale, OutW: inW * scale,
	}
}

// OutSize returns the flattened output width.
func (u *Upsample2D) OutSize() int { return u.InC * u.OutH * u.OutW }

func upsampleRow[T float](u *Upsample2D, src, dst []T) {
	for ch := 0; ch < u.InC; ch++ {
		sOff := ch * u.InH * u.InW
		dOff := ch * u.OutH * u.OutW
		for y := 0; y < u.OutH; y++ {
			sy := y / u.Scale
			for xx := 0; xx < u.OutW; xx++ {
				dst[dOff+y*u.OutW+xx] = src[sOff+sy*u.InW+xx/u.Scale]
			}
		}
	}
}

// Forward replicates each input pixel into a Scale×Scale block.
func (u *Upsample2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.C != u.InC*u.InH*u.InW {
		panic("nn: upsample input width mismatch")
	}
	out := ws.GetRawOf(x.DType(), x.R, u.OutSize())
	if x.V32 != nil {
		tensor.Parallel(x.R, x.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleRow(u, x.Row32(n), out.Row32(n))
			}
		})
	} else {
		tensor.Parallel(x.R, x.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleRow(u, x.Row(n), out.Row(n))
			}
		})
	}
	return out
}

func upsampleBackRow[T float](u *Upsample2D, src, dst []T) {
	for ch := 0; ch < u.InC; ch++ {
		sOff := ch * u.OutH * u.OutW
		dOff := ch * u.InH * u.InW
		for y := 0; y < u.OutH; y++ {
			sy := y / u.Scale
			for xx := 0; xx < u.OutW; xx++ {
				dst[dOff+sy*u.InW+xx/u.Scale] += src[sOff+y*u.OutW+xx]
			}
		}
	}
}

// Backward sums gradients over each Scale×Scale block.
func (u *Upsample2D) Backward(grad *tensor.Mat) *tensor.Mat {
	dx := ws.GetOf(grad.DType(), grad.R, u.InC*u.InH*u.InW)
	if grad.V32 != nil {
		tensor.Parallel(grad.R, grad.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleBackRow(u, grad.Row32(n), dx.Row32(n))
			}
		})
	} else {
		tensor.Parallel(grad.R, grad.R*u.OutSize(), func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				upsampleBackRow(u, grad.Row(n), dx.Row(n))
			}
		})
	}
	return dx
}

// Params returns nil: upsampling has no trainable parameters.
func (u *Upsample2D) Params() []*Param { return nil }
