package nn

import (
	"sync"
	"testing"

	"odin/internal/tensor"
)

// The pooled workspace and the retained training planes exist to make
// training steps allocation-free at steady state. These tests pin that property down: the
// naive per-sample kernels sat at ~217 allocs per conv forward+backward,
// the batched ones must stay in single digits (a little headroom is left
// for the worker-pool job headers on multi-core machines).

func TestConvTrainingStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(1)
	layer := NewConv2D(3, 32, 32, 16, 3, 1, 1, rng)
	x := tensor.New(16, 3*32*32)
	rng.FillNormal(x, 1)
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(2).FillNormal(grad, 1)
	Recycle(out)

	avg := testing.AllocsPerRun(10, func() {
		o := layer.Forward(x, true)
		dx := layer.Backward(grad)
		Recycle(o, dx)
	})
	if avg > 32 {
		t.Fatalf("conv forward+backward allocates %.0f/op, want steady-state reuse (≤32)", avg)
	}
}

func TestDenseTrainingStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(3)
	layer := NewDense(512, 128, rng)
	x := tensor.New(32, 512)
	rng.FillNormal(x, 1)
	out := layer.Forward(x, true)
	grad := tensor.New(out.R, out.C)
	tensor.NewRNG(4).FillNormal(grad, 1)
	Recycle(out)

	avg := testing.AllocsPerRun(10, func() {
		o := layer.Forward(x, true)
		dx := layer.Backward(grad)
		Recycle(o, dx)
	})
	if avg > 16 {
		t.Fatalf("dense forward+backward allocates %.0f/op, want steady-state reuse (≤16)", avg)
	}
}

// TestNetworkTrainingStepAllocs drives a whole MLP step — forward, loss,
// backward — through the canonical recycle pattern and checks the workspace
// pool absorbs it.
func TestNetworkTrainingStepAllocs(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork("mlp",
		NewDense(64, 48, rng),
		NewSigmoid(),
		NewDense(48, 16, rng),
		NewSigmoid(),
	)
	x := tensor.New(8, 64)
	rng.FillNormal(x, 1)
	y := tensor.New(8, 16)
	rng.FillUniform(y, 0, 1)

	step := func() {
		out := net.Forward(x, true)
		_, grad := BCE(out, y)
		net.ZeroGrad()
		dx := net.Backward(grad)
		Recycle(out, grad, dx)
	}
	step() // warm the pool
	avg := testing.AllocsPerRun(20, func() { step() })
	// ZeroGrad builds a params slice and the net is tiny, so the bound is
	// loose — the point is that it does not scale with layer count × batch.
	if avg > 24 {
		t.Fatalf("network step allocates %.0f/op, want steady-state reuse (≤24)", avg)
	}
}

// TestInferencePredictAllocs pins the streaming hot path: a detector-shaped
// inference pass (conv → batchnorm → leaky ReLU → 1×1 head) must draw every
// scratch matrix — including the conv's phase planes and the batchnorm
// affine scratch — from the workspace pool. This is the per-frame `Detect`
// path of the streaming core (ROADMAP: "recycle the remaining inference
// paths"); before the pooled-inference rework it allocated the patch matrix
// and BN scratch on every frame.
func TestInferencePredictAllocs(t *testing.T) {
	rng := tensor.NewRNG(9)
	conv := NewConv2D(3, 16, 16, 8, 3, 2, 1, rng)
	net := NewNetwork("det",
		conv,
		NewBatchNorm(conv.OutSize()),
		NewLeakyReLU(0.1),
		NewConv2D(8, conv.OutH, conv.OutW, 10, 1, 1, 0, rng),
	)
	x := tensor.New(1, 3*16*16)
	rng.FillNormal(x, 1)

	step := func() {
		out := net.Predict(x)
		Recycle(out)
	}
	step() // warm the pool
	avg := testing.AllocsPerRun(20, func() { step() })
	// The only residue is the parallel-loop closure headers (a few dozen
	// bytes); every matrix comes from the pool.
	if avg > 8 {
		t.Fatalf("inference pass allocates %.0f/op, want pooled reuse (≤8)", avg)
	}
}

// TestPredictConcurrentConsistency runs inference on a shared network from
// many goroutines at once and pins every result to the sequential output.
// Inference Forwards must not touch layer state (see Layer contract) — this
// is what the sharded streaming pipeline relies on, and `go test -race`
// turns any regression into a hard failure.
func TestPredictConcurrentConsistency(t *testing.T) {
	rng := tensor.NewRNG(11)
	conv := NewConv2D(3, 12, 12, 6, 3, 1, 1, rng)
	net := NewNetwork("det",
		conv,
		NewBatchNorm(conv.OutSize()),
		NewLeakyReLU(0.1),
		NewConv2D(6, conv.OutH, conv.OutW, 4, 1, 1, 0, rng),
	)
	const inputs = 6
	xs := make([]*tensor.Mat, inputs)
	want := make([][]float64, inputs)
	for i := range xs {
		xs[i] = tensor.New(1, 3*12*12)
		rng.FillNormal(xs[i], 1)
		out := net.Predict(xs[i])
		want[i] = append([]float64(nil), out.Row(0)...)
		Recycle(out)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (g + rep) % inputs
				out := net.Predict(xs[i])
				for j, v := range out.Row(0) {
					if v != want[i][j] {
						select {
						case errs <- "concurrent predict diverged from sequential":
						default:
						}
						break
					}
				}
				Recycle(out)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestConvParallelConsistency pins the worker-pool kernels to the serial
// results (row partitioning is deterministic, so equality is exact) and
// gives `go test -race` real concurrency to chew on even on one core.
func TestConvParallelConsistency(t *testing.T) {
	run := func() (*tensor.Mat, *tensor.Mat, *tensor.Mat, *tensor.Mat) {
		rng := tensor.NewRNG(7)
		layer := NewConv2D(3, 16, 16, 8, 3, 2, 1, rng)
		x := tensor.New(12, 3*16*16)
		rng.FillNormal(x, 1)
		out := layer.Forward(x, true)
		grad := tensor.New(out.R, out.C)
		tensor.NewRNG(8).FillNormal(grad, 1)
		dx := layer.Backward(grad)
		return out, dx, layer.Weight.Grad, layer.Bias.Grad
	}
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	sOut, sDx, sDW, sDB := run()
	tensor.SetParallelism(8)
	pOut, pDx, pDW, pDB := run()
	tensor.SetParallelism(prev)

	for name, pair := range map[string][2]*tensor.Mat{
		"output": {sOut, pOut},
		"dx":     {sDx, pDx},
		"dW":     {sDW, pDW},
		"db":     {sDB, pDB},
	} {
		a, b := pair[0], pair[1]
		for i := range a.V {
			if a.V[i] != b.V[i] {
				t.Fatalf("%s differs at %d under parallelism: %v vs %v", name, i, a.V[i], b.V[i])
			}
		}
	}
}
