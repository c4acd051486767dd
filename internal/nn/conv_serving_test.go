package nn

import (
	"math"
	"testing"

	"odin/internal/guardpage"
	"odin/internal/tensor"
)

// im2colGuarded unrolls one sample whose last element is the last before a
// guard page, with im2colInto and with the per-element reference, into
// NaN-filled windows, and reports the first element that differs (-1: none).
func im2colGuarded[T float](c *Conv2D, seed uint64) int {
	row, free := guardpage.Alloc[T](c.InSize())
	defer free()
	rng := tensor.NewRNG(seed)
	for i := range row {
		row[i] = T(rng.Norm())
	}
	spatial := c.OutH * c.OutW
	nan := T(math.NaN())
	got, want := make([]T, c.patchRows()*spatial), make([]T, c.patchRows()*spatial)
	for i := range got {
		got[i], want[i] = nan, nan
	}
	im2colInto(c, row, got, spatial, 0)
	im2colRef(c, row, want, spatial, 0)
	for i, v := range want {
		if got[i] != v { // every element is written, so neither side is NaN
			return i
		}
	}
	return -1
}

// TestIm2colGatherDifferential runs the unroll — its stride-2 taps go
// through the vectorized tensor.Gather2 — against the per-element reference
// over kernel × stride × padding × odd and even input sizes × every output
// width through two vector steps of either dtype. The sample ends flush
// against a guard page (on linux), so a gather that loads past a row's last
// tap faults instead of passing.
func TestIm2colGatherDifferential(t *testing.T) {
	rng := tensor.NewRNG(3)
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for outW := 1; outW <= 33; outW++ {
					for extra := 0; extra < min(stride, 2); extra++ { // columns past the last tap: InW odd and even
						inW := (outW-1)*stride + k - 2*pad + extra
						for _, inH := range []int{6, 7} {
							if inW < 1 || inH+2*pad < k {
								continue
							}
							c := NewConv2D(2, inH, inW, 1, k, stride, pad, rng)
							if c.OutW != outW {
								t.Fatalf("k=%d s=%d p=%d inW=%d: OutW %d, meant %d", k, stride, pad, inW, c.OutW, outW)
							}
							cases++
							if i := im2colGuarded[float64](c, uint64(cases)); i >= 0 {
								t.Fatalf("float64 k=%d s=%d p=%d in %dx%d: patch element %d differs from the reference", k, stride, pad, inH, inW, i)
							}
							if i := im2colGuarded[float32](c, uint64(cases)); i >= 0 {
								t.Fatalf("float32 k=%d s=%d p=%d in %dx%d: patch element %d differs from the reference", k, stride, pad, inH, inW, i)
							}
						}
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d geometries ran", cases)
	}
}

// TestConvFusedEpilogueBitIdentity pins inference fusion to the layers it
// skips: a network's inference forward — conv + activation pairs fused, the
// 1×1 head multiplied straight from its input — must match running the
// layers one by one, bit for bit, in both dtypes; and a training forward
// must not fuse at all (Backward needs the un-activated conv output).
func TestConvFusedEpilogueBitIdentity(t *testing.T) {
	rng := tensor.NewRNG(17)
	build := func(act func() Layer) *Network {
		c1 := NewConv2D(3, 27, 48, 10, 3, 2, 1, rng)
		c2 := NewConv2D(10, 14, 24, 14, 3, 2, 1, rng)
		head := NewConv2D(14, 7, 12, 10, 1, 1, 0, rng)
		for _, c := range []*Conv2D{c1, c2, head} {
			rng.FillNormal(c.Bias.W, 1)
		}
		return NewNetwork("fused", c1, act(), c2, act(), head, act(), NewDense(head.OutSize(), 6, rng), act())
	}
	for name, act := range map[string]func() Layer{
		"leaky":   func() Layer { return NewLeakyReLU(0.1) },
		"relu":    func() Layer { return NewReLU() },
		"sigmoid": func() Layer { return NewSigmoid() },
		"tanh":    func() Layer { return NewTanh() },
	} {
		net := build(act)
		for _, n := range []int{1, 3, 8} {
			x64 := randomBatch(n, 3*27*48, uint64(200+n))
			for _, x := range []*tensor.Mat{x64, x64.ToDType(tensor.F32)} {
				want := x
				var convOut *tensor.Mat // the first conv's output, before its activation
				for i, l := range net.Layers {
					want = l.Forward(want, false)
					if i == 0 {
						convOut = want
					}
				}
				if i := sameBits(net.Forward(x, false), want); i >= 0 {
					t.Fatalf("%s n=%d %v: fused inference differs from the layers run one by one at element %d", name, n, x.DType(), i)
				}
				if i := sameBits(net.Forward(x, true), want); i >= 0 {
					t.Fatalf("%s n=%d %v: training forward differs from the layers run one by one at element %d", name, n, x.DType(), i)
				}
				if len(net.fwdOuts) != len(net.Layers) {
					t.Fatalf("%s: training forward recorded %d intermediates for %d layers", name, len(net.fwdOuts), len(net.Layers))
				}
				if i := sameBits(net.fwdOuts[0], convOut); i >= 0 {
					t.Fatalf("%s n=%d %v: training forward activated the conv output in place (element %d)", name, n, x.DType(), i)
				}
			}
		}
	}
}
