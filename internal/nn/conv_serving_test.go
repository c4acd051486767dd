package nn

import (
	"testing"

	"odin/internal/tensor"
)

// TestConvFusedEpilogueBitIdentity pins inference fusion to the layers it
// skips: a network's inference forward — conv + activation pairs fused, the
// 1×1 head multiplied straight from its input — must match running the
// layers one by one, bit for bit; and a training forward
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
	} {
		net := build(act)
		for _, n := range []int{1, 3, 8} {
			x := randomBatch(n, 3*27*48, uint64(200+n))
			want := x
			var convOut *tensor.Mat // the first conv's output, before its activation
			for i, l := range net.Layers {
				want = l.Forward(want, false)
				if i == 0 {
					convOut = want
				}
			}
			if i := sameBits(net.Forward(x, false), want); i >= 0 {
				t.Fatalf("%s n=%d: fused inference differs from the layers run one by one at element %d", name, n, i)
			}
			if i := sameBits(net.Forward(x, true), want); i >= 0 {
				t.Fatalf("%s n=%d: training forward differs from the layers run one by one at element %d", name, n, i)
			}
			if len(net.fwdOuts) != len(net.Layers) {
				t.Fatalf("%s: training forward recorded %d intermediates for %d layers", name, len(net.fwdOuts), len(net.Layers))
			}
			if i := sameBits(net.fwdOuts[0], convOut); i >= 0 {
				t.Fatalf("%s n=%d: training forward activated the conv output in place (element %d)", name, n, i)
			}
		}
	}
}
