package nn

import (
	"fmt"

	"odin/internal/tensor"
)

// Convolution, window-free, for training and inference alike. im2col copies
// every input element K·K/Stride² times into a patch window before a multiply
// touches it; this path rewrites a sample once instead, into phase planes,
// and lets the products read the window's rows out of them in place.
//
// Layout. Pad the input by Pad on every side and take, per channel, every
// Stride-th row and column starting at (py, px), py, px < phases =
// min(Stride, K): that is plane (ch, py, px), planeH × planeW, the part the
// input does not cover a zero border. Kernel tap (ky, kx) of output position
// (oy, ox) reads padded element (oy·Stride+ky, ox·Stride+kx), which is
// element (oy + ky/Stride, ox + kx/Stride) of plane (ch, ky%Stride,
// kx%Stride) — so with output rows laid out planeW apart (OutW real columns,
// then (K−1)/Stride junk ones), output index j = oy·planeW + ox reads plane
// index taps[k] + j: patch row k is the contiguous run of the planes that
// starts at taps[k], k = (ch·K + ky)·K + kx as im2col orders them.
// tensor.Kernels.MatMulTaps multiplies through that table: the same terms in
// the same ascending k as weight × window, hence the same bits.
//
// A junk column's sum reads across a plane's row end — real values, the
// wrong ones — and lands in scratch only: the next layer's split and the
// final compaction copy the first OutW columns of each row and nothing else,
// so no junk value reaches a result; lanes do not interact, so it cannot
// disturb a real column's sum either. A stride-1 unpadded layer's single
// plane is its input as it lies (the 1×1 head: one tap, no border, no copy).

// planLayout fixes the layout from the geometry.
func (c *Conv2D) planLayout() {
	q := (c.K - 1) / c.Stride
	c.phases = min(c.Stride, c.K)
	c.planeH, c.planeW = c.OutH+q, c.OutW+q
	size := c.planeH * c.planeW
	off := make([]int, 0, c.patchRows())
	for ch := 0; ch < c.InC; ch++ {
		for ky := 0; ky < c.K; ky++ {
			for kx := 0; kx < c.K; kx++ {
				plane := (ch*c.phases+ky%c.Stride)*c.phases + kx%c.Stride
				off = append(off, plane*size+ky/c.Stride*c.planeW+kx/c.Stride)
			}
		}
	}
	c.taps = tensor.NewTaps(off)
	c.planes = tensor.NewPool()
}

// planesLen is the size of one sample's phase planes.
func (c *Conv2D) planesLen() int { return c.InC * c.phases * c.phases * c.planeH * c.planeW }

// wideLen is the size of one sample's output with rows planeW apart, and
// wideCols how many of a channel's columns the product computes: through the
// last real column of the last row.
func (c *Conv2D) wideLen() int  { return c.OutC * c.OutH * c.planeW }
func (c *Conv2D) wideCols() int { return (c.OutH-1)*c.planeW + c.OutW }

// inPlace reports whether a compact sample is its own phase planes.
func (c *Conv2D) inPlace() bool { return c.Stride == 1 && c.Pad == 0 }

// phaseRect returns the part [y0, y1) × [x0, x1) of plane (·, py, px) the
// input covers; the rest is border.
func (c *Conv2D) phaseRect(py, px int) (y0, y1, x0, x1 int) {
	y0, y1 = c.tapRange(py, c.InH, c.planeH)
	x0, x1 = c.tapRange(px, c.InW, c.planeW)
	if y0 == y1 || x0 == x1 {
		return 0, 0, 0, 0
	}
	return
}

// splitPlanes rewrites one sample into c's phase planes. src is
// channel-major with rows srcW and channels srcC apart: a sample where it
// lies — a batch row or a frame — or the wide output of the layer before,
// whose junk columns lie past every InW and are not read. Only a plane's
// covered rectangle is written, all of it: planes come from c.planes or
// c.trainPlanes, which hand out zeroed memory or what an earlier splitPlanes
// left, so the border is zero for as long as the layer lives and is never
// cleared again. Within the rectangle each row is one strided run of an
// input row: copied at stride 1, de-interleaved by the vector gather at
// stride 2.
func splitPlanes(c *Conv2D, src []float64, srcW, srcC int, planes []float64) {
	size := c.planeH * c.planeW
	for py := 0; py < c.phases; py++ {
		for px := 0; px < c.phases; px++ {
			y0, y1, x0, x1 := c.phaseRect(py, px)
			if y0 == y1 {
				continue
			}
			n := x1 - x0
			d0 := (py*c.phases+px)*size + y0*c.planeW + x0
			s0 := (y0*c.Stride+py-c.Pad)*srcW + x0*c.Stride + px - c.Pad
			for ch := 0; ch < c.InC; ch, d0, s0 = ch+1, d0+c.phases*c.phases*size, s0+srcC {
				if c.Stride == 2 {
					tensor.Kernels{}.Gather2(planes[d0:], src[s0:], n, y1-y0, c.planeW, 2*srcW)
					continue
				}
				for y, di, si := y0, d0, s0; y < y1; y, di, si = y+1, di+c.planeW, si+c.Stride*srcW {
					d := planes[di : di+n]
					if c.Stride == 1 {
						copy(d, src[si:si+n])
						continue
					}
					run := src[si : si+(n-1)*c.Stride+1]
					for i := range d {
						d[i] = run[i*c.Stride]
					}
				}
			}
		}
	}
}

// convStage is one convolution of a run and what rides on its output: act
// in the product's store; rows — a Sigmoid, which is no blend — on
// the sample's finished output row, so only after the run's last
// convolution. A training forward's stage keeps its planes: sample n's go
// to row n of keep, not to scratch, for Backward to read.
type convStage struct {
	c    *Conv2D
	act  tensor.Act
	rows rowAct
	keep *tensor.Mat
}

// maxConvRun bounds a run, so that a worker can hold its planes in an array;
// a longer chain of convolutions is two runs with a batch matrix between.
const maxConvRun = 8

// convRun collects the run of convolutions that starts at layers[i], each
// with the activation after it, for as long as one's output is the next
// one's input, and returns it with the index of the first layer past it.
func convRun(layers []Layer, i int) ([]convStage, int) {
	stages := make([]convStage, 0, maxConvRun)
	for i < len(layers) && len(stages) < maxConvRun {
		c, ok := layers[i].(*Conv2D)
		if !ok {
			break
		}
		if n := len(stages); n > 0 {
			if p := stages[n-1].c; p.OutC != c.InC || p.OutH != c.InH || p.OutW != c.InW {
				break
			}
		}
		act, rows, fused := fusedAfter(layers, i)
		stages = append(stages, convStage{c: c, act: act, rows: rows})
		i += 1 + fused
		if rows != nil {
			break
		}
	}
	return stages, i
}

// forwardConvs takes every sample of a batch — the rows of x or, with x nil,
// frames where they lie — through a whole run of convolutions, the batch
// split across the workers: one output matrix, and between the layers
// nothing but a worker's scratch.
func forwardConvs(stages []convStage, x *tensor.Mat, frames [][]float64) *tensor.Mat {
	first, last := stages[0].c, stages[len(stages)-1].c
	r := len(frames)
	if x != nil {
		r = x.R
		if x.C != first.InSize() {
			panic(fmt.Sprintf("nn: conv2d input width %d, want %d", x.C, first.InSize()))
		}
	}
	// The kernels take a sample's length on trust.
	for i, f := range frames {
		if len(f) != first.InSize() {
			panic(fmt.Sprintf("nn: conv2d input %d has width %d, want %d", i, len(f), first.InSize()))
		}
	}
	work := 0
	for _, st := range stages {
		work += 2 * r * st.c.OutC * st.c.patchRows() * st.c.OutH * st.c.OutW
	}
	out := ws.GetRaw(r, last.OutSize())
	tensor.Parallel(r, work, func(n0, n1 int) { convRange(stages, x, frames, out, n0, n1) })
	return out
}

// convRange is one worker's share of forwardConvs, samples [n0, n1) — rows of
// x, or with x nil the frames. A stage that splits draws its planes from its
// layer's own pool, or splits into its kept rows (see splitPlanes); the wide
// output between layers is workspace scratch, which each layer writes only
// after the next one's planes — or the compaction — have been read out of
// the previous.
func convRange(stages []convStage, x *tensor.Mat, frames [][]float64, out *tensor.Mat, n0, n1 int) {
	var kern tensor.Kernels
	sample := func(n int) []float64 { return frames[n] }
	if x != nil {
		sample = func(n int) []float64 { return x.Row(n) }
	}
	// held[i] is stage i's planes; held[len(stages)] the wide output.
	var held [maxConvRun + 1]*tensor.Mat
	defer func() {
		for i, st := range stages {
			st.c.planes.Put(held[i])
		}
		ws.Put(held[len(stages)])
	}()
	var planes [maxConvRun][]float64
	wideLen := 0
	for i, st := range stages {
		c := st.c
		// A stride-1 unpadded first layer reads a sample where it lies,
		// unless it keeps its planes.
		if st.keep == nil && (i > 0 || !c.inPlace()) {
			held[i] = c.planes.GetRaw(1, c.planesLen())
			planes[i] = held[i].V
		}
		if i < len(stages)-1 || c.planeW != c.OutW {
			wideLen = max(wideLen, c.wideLen())
		}
	}
	var wideBuf []float64
	if wideLen > 0 {
		held[len(stages)] = ws.GetRaw(1, wideLen)
		wideBuf = held[len(stages)].V
	}
	for n := n0; n < n1; n++ {
		orow := out.Row(n)
		var wide []float64 // the layer before's output, rows prev.planeW apart
		var prev *Conv2D   // and that layer
		for i, st := range stages {
			c := st.c
			b := planes[i]
			if st.keep != nil {
				b = st.keep.Row(n)
			}
			switch {
			case b == nil:
				b = sample(n)
			case i == 0:
				splitPlanes(c, sample(n), c.InW, c.InH*c.InW, b)
			default:
				splitPlanes(c, wide, prev.planeW, prev.OutH*prev.planeW, b)
			}
			final := i == len(stages)-1
			dst, dn := wideBuf, c.OutH*c.planeW
			if final && c.planeW == c.OutW {
				dst, dn = orow, c.OutH*c.OutW // no junk columns: straight into the output row
			}
			kern.MatMulTaps(dst, dn, c.Weight.W.V, c.OutC, b, c.taps, c.wideCols(), c.Bias.W.V, st.act)
			if final && dn != c.OutH*c.OutW {
				for ro, o := 0, 0; ro < c.OutC*c.OutH; ro, o = ro+1, o+c.OutW {
					copy(orow[o:o+c.OutW], dst[ro*c.planeW:])
				}
			}
			wide, prev = dst, c
		}
		if rows := stages[len(stages)-1].rows; rows != nil {
			rows.applyRows(out, n, n+1)
		}
	}
}

// mergePlanes is splitPlanes' transpose: it copies the covered rectangle of
// each of c's phase planes back to where it lies in the compact sample dst. Border elements are padding and are dropped; the dst elements
// no plane covers, input rows and columns past the last tap, are left as
// they are.
func mergePlanes(c *Conv2D, planes, dst []float64) {
	size := c.planeH * c.planeW
	for py := 0; py < c.phases; py++ {
		for px := 0; px < c.phases; px++ {
			y0, y1, x0, x1 := c.phaseRect(py, px)
			if y0 == y1 {
				continue
			}
			n := x1 - x0
			s0 := (py*c.phases+px)*size + y0*c.planeW + x0
			d0 := (y0*c.Stride+py-c.Pad)*c.InW + x0*c.Stride + px - c.Pad
			for ch := 0; ch < c.InC; ch, s0, d0 = ch+1, s0+c.phases*c.phases*size, d0+c.InH*c.InW {
				for y, si, di := y0, s0, d0; y < y1; y, si, di = y+1, si+c.planeW, di+c.Stride*c.InW {
					for i, v := range planes[si : si+n] {
						dst[di+i*c.Stride] = v
					}
				}
			}
		}
	}
}

// convGrads is Conv2D.Backward: dW (OutC × taps) and dx (zeroed, a row per
// sample) take their sums, the bias gradient its own. Every element sums in
// the order of the whole-batch products over the patch window it replaces
// (DESIGN §4). db[oc] is Σ over (n, position) ascending.
func convGrads(c *Conv2D, grad, dW, dx *tensor.Mat) {
	g, planes := grad.V, c.trainPlanes.V
	r, spatial, taps := grad.R, c.OutH*c.OutW, c.patchRows()
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for n := 0; n < r; n++ {
			for _, v := range g[n*grad.C+oc*spatial : n*grad.C+(oc+1)*spatial] {
				s += v
			}
		}
		c.Bias.Grad.V[oc] += s
	}
	work := 2 * r * c.OutC * taps * spatial
	convWeightGrad(c, grad, planes, dW.V, work)
	tensor.Parallel(r, work, func(n0, n1 int) { convInputGrad(c, g, dx, n0, n1) })
}

// convWeightGrad writes dW[oc][k] = Σ g_n[oc][oy][ox] · planes_n[taps[k] +
// oy·planeW + ox] over (n, oy, ox) ascending, each element one chain from +0
// — G × windowᵀ in mmBT's order over the window's columns, read out of the
// planes in place. It runs as the transposed product on the register tile
// (Kernels.MatMulAcc): a row of dWᵀ per (tap, channel), laid out (ky, kx, ch)
// so that one tap's channels are rows a plane set apart, against gᵀ, each
// sample's gradient position-major. One call per row segment — (n, oy), or n
// alone where the planes have no junk columns and an output row's run
// continues into the next — takes up to four channels' chains through it;
// the first call starts them from +0 and the rest carry them on. Workers
// split the (tap, block of four channels) units; a last pass transposes.
func convWeightGrad(c *Conv2D, grad *tensor.Mat, planes, dW []float64, work int) {
	var kern tensor.Kernels
	g, r, spatial, kk := grad.V, grad.R, c.OutH*c.OutW, c.K*c.K
	seg, stride := c.OutW, c.planeW
	if stride == seg {
		seg, stride = spatial, spatial
	}
	bufs := ws.GetRaw(1, r*spatial*c.OutC+c.patchRows()*c.OutC)
	defer ws.Put(bufs)
	gT, dWT := bufs.V[:r*spatial*c.OutC], bufs.V[r*spatial*c.OutC:]
	for n := 0; n < r; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for s, v := range g[(n*c.OutC+oc)*spatial:][:spatial] {
				gT[(n*spatial+s)*c.OutC+oc] = v
			}
		}
	}
	blocks, chStride := (c.InC+3)/4, c.phases*c.phases*c.planeH*c.planeW
	tensor.Parallel(kk*blocks, work, func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			t, ch := u/blocks, u%blocks*4
			nr, dst := min(4, c.InC-ch), dWT[(t*c.InC+ch)*c.OutC:]
			for n := 0; n < r; n++ {
				p := planes[n*c.planesLen()+c.taps.At(ch*kk+t):]
				for j, o := 0, 0; j < spatial; j, o = j+seg, o+stride {
					kern.MatMulAcc(dst, c.OutC, p[o:], nr, chStride, 1, gT[(n*spatial+j)*c.OutC:], c.OutC, seg, c.OutC, n == 0 && j == 0)
				}
			}
		}
	})
	for oc := 0; oc < c.OutC; oc++ {
		for ch := 0; ch < c.InC; ch++ {
			for t := 0; t < kk; t++ {
				dW[(oc*c.InC+ch)*kk+t] = dWT[(t*c.InC+ch)*c.OutC+oc]
			}
		}
	}
}

// convInputGrad writes the input gradient of samples [n0, n1) into dx's
// zeroed rows. Per sample: dcol = Wᵀ × G_n, which is the whole-batch Wᵀ×G's
// columns of the sample bit for bit (Kernels.MatMulAT); dcol's rows added
// into zeroed phase planes tap by tap, k ascending — col2im's order at every
// input element; the covered rectangles merged back into the sample's row.
func convInputGrad(c *Conv2D, g []float64, dx *tensor.Mat, n0, n1 int) {
	var kern tensor.Kernels
	spatial, taps := c.OutH*c.OutW, c.patchRows()
	buf := ws.GetRaw(1, taps*spatial+c.planesLen())
	defer ws.Put(buf)
	dcol, planes := buf.V[:taps*spatial], buf.V[taps*spatial:]
	w := c.Weight.W.V
	for n := n0; n < n1; n++ {
		kern.MatMulAT(dcol, w, taps, c.OutC, g[n*c.OutSize():(n+1)*c.OutSize()], spatial)
		clear(planes)
		for k := 0; k < taps; k++ {
			for oy, t := 0, c.taps.At(k); oy < c.OutH; oy++ {
				p := planes[t+oy*c.planeW : t+oy*c.planeW+c.OutW]
				for i, v := range dcol[(k*c.OutH+oy)*c.OutW:][:len(p)] {
					p[i] += v
				}
			}
		}
		mergePlanes(c, planes, dx.Row(n))
	}
}
