package nn

import (
	"testing"

	"odin/internal/tensor"
)

// convBNStack is a small detector-shaped network: two strided conv +
// BatchNorm blocks and a 1×1 head over a 3×27×48 frame.
func convBNStack(rng *tensor.RNG) *Network {
	c1 := NewConv2D(3, 27, 48, 8, 3, 2, 1, rng)
	c2 := NewConv2D(8, c1.OutH, c1.OutW, 16, 3, 2, 1, rng)
	head := NewConv2D(16, c2.OutH, c2.OutW, 6, 1, 1, 0, rng)
	return NewNetwork("convbn",
		c1, NewBatchNorm(c1.OutSize()), NewLeakyReLU(0.1),
		c2, NewBatchNorm(c2.OutSize()), NewReLU(),
		head)
}

// trainStack runs epochs over n random samples in batches of batch, the way
// a recovery build does: every batch matrix, output and gradient is drawn
// from and recycled to the workspace.
func trainStack(net *Network, n, batch, epochs int, rng *tensor.RNG) {
	data := tensor.New(n, 3*27*48)
	rng.FillNormal(data, 1)
	opt := NewAdam(0.01)
	for e := 0; e < epochs; e++ {
		for start := 0; start < n; start += batch {
			rows := min(batch, n-start)
			x := GetMatRaw(rows, data.C)
			copy(x.V, data.V[start*data.C:])
			out := net.Forward(x, true)
			grad := GetMatRaw(out.R, out.C)
			copy(grad.V, out.V)
			grad.Scale(1 / float64(rows))
			net.ZeroGrad()
			dx := net.Backward(grad)
			opt.Step(net.Params())
			Recycle(x, out, grad, dx)
		}
	}
}

// TestBackwardHandsBackBatchBuffers: a training forward gives each Conv2D
// its phase planes and each BatchNorm its x̂, and the Backward after it
// hands both back, so a network between steps — and a trained model — holds
// nothing sized by a batch.
func TestBackwardHandsBackBatchBuffers(t *testing.T) {
	rng := tensor.NewRNG(41)
	net := convBNStack(rng)
	x := GetMatRaw(5, 3*27*48)
	rng.FillNormal(x, 1)
	held := func() (n int) {
		for _, l := range net.Layers {
			switch l := l.(type) {
			case *Conv2D:
				if l.trainPlanes != nil {
					n++
				}
			case *BatchNorm:
				if l.lastXHat != nil {
					n++
				}
			}
		}
		return n
	}
	out := net.Forward(x, true)
	if n := held(); n != 5 {
		t.Fatalf("a training forward left %d batch buffers, want 5 (3 planes, 2 x̂)", n)
	}
	dx := net.Backward(out)
	if n := held(); n != 0 {
		t.Fatalf("Backward left %d batch buffers in the layers", n)
	}
	Recycle(x, out, dx)
}

// TestWorkspaceHoldingsFlat trains a fresh conv+BatchNorm stack three times,
// at sample counts whose last batches (4, 9 and 3 rows) differ, on a fresh
// workspace: what the workspace holds after the third build must be within
// 10 % of what it held after the first, so a process that keeps building
// models does not keep growing.
func TestWorkspaceHoldingsFlat(t *testing.T) {
	defer func(old *tensor.Pool) { ws = old }(ws)
	ws = tensor.NewPool()
	var first, firstClasses int
	for i, n := range []int{100, 137, 211} {
		rng := tensor.NewRNG(uint64(60 + i))
		trainStack(convBNStack(rng), n, 16, 2, rng)
		floats, classes := ws.Held()
		t.Logf("after %d samples: %.2f MB in %d classes", n, float64(floats)*8/1e6, classes)
		if i == 0 {
			first, firstClasses = floats, classes
			continue
		}
		if float64(floats) > 1.1*float64(first) {
			t.Fatalf("after %d samples the workspace holds %d floats in %d classes, the first build left %d in %d: more than 10 %% growth",
				n, floats, classes, first, firstClasses)
		}
	}
}
