package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"odin/internal/detect"
	"odin/internal/exp"
	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// The backend benchmark compares the float32 compute backend against the
// float64 reference on the kernels that dominate serving cost — square
// matmul and the detector's conv layer — and end to end on DetectBatch
// through the heavyweight YOLO baseline. It writes BENCH_backend.json and
// fails the run if float32 does not clear the minimum speedup on every
// kernel and on end-to-end throughput: this bench is the performance
// regression gate for the vectorized backend.

// backendMinSpeedup is the gate: float32 must beat float64 by at least
// this factor on every measured kernel and end to end.
const backendMinSpeedup = 1.5

// backendBenchResult is the JSON document written to -backendout.
type backendBenchResult struct {
	Scale      string               `json:"scale"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	MinSpeedup float64              `json:"min_speedup_gate"`
	Kernels    []backendKernelBench `json:"kernels"`
	E2E        backendE2EBench      `json:"e2e_detect_batch"`
}

// backendKernelBench is one microkernel's measurement.
type backendKernelBench struct {
	Name      string  `json:"name"`
	F64GFLOPS float64 `json:"f64_gflops"`
	F32GFLOPS float64 `json:"f32_gflops"`
	Speedup   float64 `json:"speedup"`
}

// backendE2EBench is the end-to-end DetectBatch measurement.
type backendE2EBench struct {
	BatchFrames int     `json:"frames_per_batch"`
	F64FPS      float64 `json:"f64_fps"`
	F32FPS      float64 `json:"f32_fps"`
	Speedup     float64 `json:"speedup"`
}

// benchSecs runs f repeatedly for at least minDur after one warmup call and
// returns the mean seconds per call.
func benchSecs(minDur time.Duration, f func()) float64 {
	f() // warmup: pools fill, shadows pack
	var iters int
	start := time.Now()
	for time.Since(start) < minDur {
		f()
		iters++
	}
	return time.Since(start).Seconds() / float64(iters)
}

// benchMatMul measures one square-matmul size in GFLOP/s for dtype dt.
func benchMatMul(dt tensor.DType, n int, minDur time.Duration) float64 {
	rng := tensor.NewRNG(uint64(n))
	a := tensor.NewOf(dt, n, n)
	b := tensor.NewOf(dt, n, n)
	dst := tensor.NewOf(dt, n, n)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	secs := benchSecs(minDur, func() { tensor.MatMulInto(dst, a, b) })
	return 2 * float64(n) * float64(n) * float64(n) / secs / 1e9
}

// benchConv measures a detector-shaped conv forward in GFLOP/s for dtype
// dt: 3→16 channels, 3×3 kernel, stride 2 on a 64×64 frame, batch 16 — the
// shape of the YOLO baseline's first (and widest) layer.
func benchConv(dt tensor.DType, minDur time.Duration) float64 {
	const (
		batch, inC, h, w = 16, 3, 64, 64
		outC, k, stride  = 16, 3, 2
	)
	rng := tensor.NewRNG(7)
	conv := nn.NewConv2D(inC, h, w, outC, k, stride, 1, rng)
	x := tensor.NewOf(dt, batch, inC*h*w)
	rng.FillNormal(x, 1)
	secs := benchSecs(minDur, func() {
		out := conv.Forward(x, false)
		nn.Recycle(out)
	})
	flops := 2 * float64(batch) * float64(conv.OutH) * float64(conv.OutW) *
		float64(k) * float64(k) * float64(inC) * float64(outC)
	return flops / secs / 1e9
}

// benchDetect measures end-to-end DetectBatch frames/sec through the
// heavyweight YOLO baseline on dtype dt. The weights are untrained — decode
// cost depends only on threshold crossings, and identical seeds give both
// backends the same weights, so the comparison is symmetric.
func benchDetect(dt tensor.DType, imgs []*synth.Image, minDur time.Duration) float64 {
	scene := synth.DefaultSceneConfig()
	cfg := detect.YOLOConfig(scene.H, scene.W)
	cfg.DType = dt
	det := detect.NewGridDetector(cfg)
	secs := benchSecs(minDur, func() { det.DetectBatch(imgs) })
	return float64(len(imgs)) / secs
}

// runBackendBench measures both backends and writes BENCH_backend.json
// under outDir; the human-readable table goes to w. Returns an error —
// failing the run — if float32 misses the speedup gate anywhere.
func runBackendBench(scale exp.Scale, outDir string, w io.Writer) error {
	minDur := 300 * time.Millisecond
	sizes := []int{256, 512}
	if scale == exp.Full {
		minDur = time.Second
		sizes = []int{256, 512, 1024}
	}
	doc := backendBenchResult{
		Scale:      scale.String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MinSpeedup: backendMinSpeedup,
	}
	fmt.Fprintf(w, "Compute backend comparison (float32 vs float64, GOMAXPROCS=%d, gate ≥%.1fx)\n",
		doc.GOMAXPROCS, backendMinSpeedup)

	for _, n := range sizes {
		k := backendKernelBench{
			Name:      fmt.Sprintf("matmul_%d", n),
			F64GFLOPS: benchMatMul(tensor.F64, n, minDur),
			F32GFLOPS: benchMatMul(tensor.F32, n, minDur),
		}
		k.Speedup = k.F32GFLOPS / k.F64GFLOPS
		doc.Kernels = append(doc.Kernels, k)
		fmt.Fprintf(w, "  %-12s f64 %7.2f GFLOP/s   f32 %7.2f GFLOP/s   %5.2fx\n",
			k.Name, k.F64GFLOPS, k.F32GFLOPS, k.Speedup)
	}
	ck := backendKernelBench{
		Name:      "conv3x3_s2",
		F64GFLOPS: benchConv(tensor.F64, minDur),
		F32GFLOPS: benchConv(tensor.F32, minDur),
	}
	ck.Speedup = ck.F32GFLOPS / ck.F64GFLOPS
	doc.Kernels = append(doc.Kernels, ck)
	fmt.Fprintf(w, "  %-12s f64 %7.2f GFLOP/s   f32 %7.2f GFLOP/s   %5.2fx\n",
		ck.Name, ck.F64GFLOPS, ck.F32GFLOPS, ck.Speedup)

	// End to end: one shared frame batch, fresh identically-seeded detectors.
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(91, scene)
	frames := gen.Dataset(synth.FullData, 32)
	imgs := make([]*synth.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	doc.E2E = backendE2EBench{
		BatchFrames: len(imgs),
		F64FPS:      benchDetect(tensor.F64, imgs, minDur),
		F32FPS:      benchDetect(tensor.F32, imgs, minDur),
	}
	doc.E2E.Speedup = doc.E2E.F32FPS / doc.E2E.F64FPS
	fmt.Fprintf(w, "  DetectBatch  f64 %7.1f frames/s   f32 %7.1f frames/s   %5.2fx\n",
		doc.E2E.F64FPS, doc.E2E.F32FPS, doc.E2E.Speedup)

	if err := writeJSON(outDir, "backend", doc, w); err != nil {
		return err
	}

	// The JSON lands first so a miss still leaves the numbers on disk; then
	// the gate fails the run.
	for _, k := range doc.Kernels {
		if k.Speedup < backendMinSpeedup {
			return fmt.Errorf("backend bench: %s speedup %.2fx below the %.1fx gate", k.Name, k.Speedup, backendMinSpeedup)
		}
	}
	if doc.E2E.Speedup < backendMinSpeedup {
		return fmt.Errorf("backend bench: DetectBatch speedup %.2fx below the %.1fx gate", doc.E2E.Speedup, backendMinSpeedup)
	}
	return nil
}
