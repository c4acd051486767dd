package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"odin/internal/cluster"
	"odin/internal/detect"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// statsProjector is a fast stand-in for the DA-GAN in unit tests: it maps a
// frame to simple appearance statistics (global mean, contrast, per-channel
// means, upper/lower-half means), which separate the synthetic domains the
// same way the DA-GAN latent does.
type statsProjector struct{ dim int }

func (s statsProjector) LatentDim() int { return 8 }

func (s statsProjector) Project(x []float64) []float64 {
	n := len(x)
	third := n / 3
	z := make([]float64, 8)
	z[0] = tensor.Mean(x) * 10
	z[1] = math.Sqrt(tensor.Variance(x)) * 10
	for c := 0; c < 3; c++ {
		z[2+c] = tensor.Mean(x[c*third:(c+1)*third]) * 10
	}
	z[5] = tensor.Mean(x[:n/2]) * 10
	z[6] = tensor.Mean(x[n/2:]) * 10
	z[7] = (z[5] - z[6]) * 2
	return z
}

func testClusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.MinPoints = 40
	cfg.StabilitySteps = 10
	cfg.TempWindow = 80
	return cfg
}

func TestDownsampleEncoderDims(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(1, scene)
	f := gen.GenerateSubset(synth.DayData)
	enc := DownsampleEncoder(2)
	v := enc(f.Image)
	if len(v) != EncodedDim(scene, 2) {
		t.Fatalf("encoded dim %d, want %d", len(v), EncodedDim(scene, 2))
	}
	enc1 := DownsampleEncoder(1)
	if len(enc1(f.Image)) != f.Image.Dim() {
		t.Fatal("factor 1 must be identity")
	}
}

func TestDetectorObserveFormsClusters(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(2, scene)
	d := NewDetector(statsProjector{}, testClusterConfig(), DownsampleEncoder(2))

	var drift bool
	for i := 0; i < 300; i++ {
		obs := d.Observe(gen.GenerateSubset(synth.DayData).Image)
		if obs.Assignment.Drift != nil {
			drift = true
		}
		if len(obs.Latent) != 8 {
			t.Fatal("latent dim")
		}
	}
	if !drift {
		t.Fatal("stationary day stream should form a cluster")
	}
	// A night frame must be an outlier for the day cluster.
	obs := d.Observe(gen.GenerateSubset(synth.NightData).Image)
	if !obs.Assignment.Outlier {
		t.Fatal("night frame should be an outlier of the day cluster")
	}
}

func TestFuseDetectionsSingleSet(t *testing.T) {
	dets := []detect.Detection{
		{Box: synth.Box{Class: 0, X: 5, Y: 5, W: 8, H: 4}, Score: 0.8},
	}
	out := FuseDetections([][]detect.Detection{dets}, []float64{1})
	if len(out) != 1 || math.Abs(out[0].Score-0.8) > 1e-9 {
		t.Fatalf("single-set fusion changed results: %+v", out)
	}
}

func TestFuseDetectionsMergesOverlaps(t *testing.T) {
	a := []detect.Detection{{Box: synth.Box{Class: 0, X: 5, Y: 5, W: 8, H: 4}, Score: 0.6}}
	b := []detect.Detection{{Box: synth.Box{Class: 0, X: 5.5, Y: 5, W: 8, H: 4}, Score: 0.8}}
	out := FuseDetections([][]detect.Detection{a, b}, []float64{0.5, 0.5})
	if len(out) != 1 {
		t.Fatalf("overlapping boxes should merge: %d", len(out))
	}
	want := 0.5*0.6 + 0.5*0.8
	if math.Abs(out[0].Score-want) > 1e-9 {
		t.Fatalf("fused score %v, want %v", out[0].Score, want)
	}
}

func TestFuseDetectionsKeepsDistinctClasses(t *testing.T) {
	a := []detect.Detection{{Box: synth.Box{Class: 0, X: 5, Y: 5, W: 8, H: 4}, Score: 0.8}}
	b := []detect.Detection{{Box: synth.Box{Class: 1, X: 5, Y: 5, W: 8, H: 4}, Score: 0.8}}
	out := FuseDetections([][]detect.Detection{a, b}, []float64{0.5, 0.5})
	if len(out) != 2 {
		t.Fatalf("distinct classes must not merge: %d", len(out))
	}
}

func TestFuseDetectionsDropsNoise(t *testing.T) {
	// A low-weight model's lone detection fuses to below the noise floor.
	a := []detect.Detection{{Box: synth.Box{Class: 0, X: 5, Y: 5, W: 8, H: 4}, Score: 0.5}}
	out := FuseDetections([][]detect.Detection{a}, []float64{0.05})
	if len(out) != 0 {
		t.Fatalf("noise detection should be dropped: %+v", out)
	}
}

// buildClusterAt forms a cluster set with clusters at the given centres.
func buildClusterAt(t *testing.T, centres [][]float64) *cluster.Set {
	t.Helper()
	rng := tensor.NewRNG(77)
	s := cluster.NewSet(testClusterConfig())
	for _, c := range centres {
		for i := 0; i < 300; i++ {
			p := make([]float64, len(c))
			for j, v := range c {
				p[j] = v + 0.3*rng.Norm()
			}
			s.Observe(p)
		}
	}
	if len(s.Permanent) != len(centres) {
		t.Fatalf("setup: %d clusters, want %d", len(s.Permanent), len(centres))
	}
	return s
}

func TestSelectorPolicies(t *testing.T) {
	set := buildClusterAt(t, [][]float64{{0, 0}, {10, 0}})
	m0 := &Model{Kind: detect.KindSpecialized, ClusterID: set.Permanent[0].ID}
	m1 := &Model{Kind: detect.KindSpecialized, ClusterID: set.Permanent[1].ID}
	byCluster := map[int]*Model{m0.ClusterID: m0, m1.ClusterID: m1}

	// KNN-U: equal weights.
	sel := Selector{Policy: PolicyKNNU, K: 2}
	out := sel.Select([]float64{1, 0}, set, byCluster, m1)
	if len(out) != 2 || math.Abs(out[0].Weight-0.5) > 1e-9 {
		t.Fatalf("KNN-U weights: %+v", out)
	}

	// KNN-W: closer cluster gets the larger weight (Equation 8).
	sel = Selector{Policy: PolicyKNNW, K: 2}
	out = sel.Select([]float64{1, 0}, set, byCluster, m1)
	if len(out) != 2 {
		t.Fatalf("KNN-W size: %d", len(out))
	}
	var w0, w1 float64
	for _, wm := range out {
		if wm.Model == m0 {
			w0 = wm.Weight
		} else {
			w1 = wm.Weight
		}
	}
	if w0 <= w1 {
		t.Fatalf("closer model must weigh more: w0=%v w1=%v", w0, w1)
	}
	if math.Abs(w0+w1-1) > 1e-9 {
		t.Fatalf("weights must sum to 1: %v", w0+w1)
	}

	// ∆-BM: a point inside cluster 0's band selects only model 0.
	sel = Selector{Policy: PolicyDeltaBM, K: 2}
	inBand := []float64{0.3, 0.1}
	if !set.Permanent[0].Contains(inBand) {
		t.Skip("probe point not inside band; geometry shifted")
	}
	out = sel.Select(inBand, set, byCluster, m1)
	if len(out) != 1 || out[0].Model != m0 {
		t.Fatalf("∆-BM should select the band's model: %+v", out)
	}

	// ∆-BM fallback: a point far outside all bands falls back to KNN-W.
	out = sel.Select([]float64{5, 40}, set, byCluster, m1)
	if len(out) == 0 {
		t.Fatal("∆-BM fallback must return models")
	}

	// MostRecent.
	sel = Selector{Policy: PolicyMostRecent}
	out = sel.Select([]float64{0, 0}, set, byCluster, m1)
	if len(out) != 1 || out[0].Model != m1 {
		t.Fatalf("MostRecent: %+v", out)
	}
	if got := sel.Select([]float64{0, 0}, set, byCluster, nil); got != nil {
		t.Fatal("MostRecent with no model should return nil")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyKNNU: "KNN-U", PolicyKNNW: "KNN-W", PolicyDeltaBM: "∆-BM", PolicyMostRecent: "MOST-RECENT",
	} {
		if p.String() != want {
			t.Fatalf("%v != %v", p.String(), want)
		}
	}
}

func TestModelManagerBuffersAndMemory(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(5, scene)
	cfg := DefaultSpecializerConfig()
	cfg.MaxTrainFrames = 5

	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	mm := NewModelManager(cfg, scene, base)

	// Empty manager reports the baseline's footprint.
	yoloMB := detect.CostOf(detect.KindYOLO).SizeMB
	if math.Abs(mm.MemoryMB()-yoloMB) > 1e-9 {
		t.Fatalf("baseline memory %v, want %v", mm.MemoryMB(), yoloMB)
	}

	for i := 0; i < 10; i++ {
		mm.AddFrame(3, gen.GenerateSubset(synth.DayData))
	}
	if len(mm.buffers[3]) != 5 {
		t.Fatalf("buffer should cap at 5, got %d", len(mm.buffers[3]))
	}

	mm.byCluster[3] = &Model{Kind: detect.KindSpecialized, Cost: detect.CostOf(detect.KindSpecialized)}
	specMB := detect.CostOf(detect.KindSpecialized).SizeMB
	if math.Abs(mm.MemoryMB()-specMB) > 1e-9 {
		t.Fatalf("one-model memory %v, want %v", mm.MemoryMB(), specMB)
	}

	mm.DropCluster(3)
	if mm.NumModels() != 0 || len(mm.buffers[3]) != 0 {
		t.Fatal("DropCluster should remove model and buffer")
	}
}

func TestModelName(t *testing.T) {
	var m *Model
	if m.Name() != "none" {
		t.Fatal("nil model name")
	}
	m = &Model{Kind: detect.KindLite}
	if m.Name() != "YOLO-LITE" {
		t.Fatal("model name")
	}
}

func TestStatsFPS(t *testing.T) {
	s := Stats{Frames: 100, SimTime: 2}
	if s.FPS() != 50 {
		t.Fatalf("fps %v", s.FPS())
	}
	if (Stats{}).FPS() != 0 {
		t.Fatal("zero stats fps")
	}
}

// TestOdinEndToEndDriftRecovery runs a compact full-pipeline scenario: a
// day stream forms a cluster and trains models; a night phase triggers
// drift and a second specialist. Uses the fast stub projector and small
// training budgets.
func TestOdinEndToEndDriftRecovery(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(6, scene)

	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	base.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, 60)), 4, 16)

	cfg := DefaultConfig(scene)
	cfg.Cluster = testClusterConfig()
	cfg.Spec.LiteEpochs = 3
	cfg.Spec.SpecEpochs = 4
	cfg.Spec.LabelDelay = 120
	cfg.Spec.MaxTrainFrames = 120
	o := New(cfg, statsProjector{}, base)

	for i := 0; i < 320; i++ {
		o.Process(gen.GenerateSubset(synth.DayData))
	}
	if o.Stats().DriftEvents < 1 {
		t.Fatal("day phase should trigger at least one drift event")
	}
	for i := 0; i < 320; i++ {
		o.Process(gen.GenerateSubset(synth.NightData))
	}
	st := o.Stats()
	if st.DriftEvents < 2 {
		t.Fatalf("night phase should trigger a second drift event, got %d", st.DriftEvents)
	}
	if o.Manager.NumModels() < 2 {
		t.Fatalf("expected ≥2 models, got %d", o.Manager.NumModels())
	}
	// Specialized models must have replaced lites after the label delay.
	specs := 0
	for _, m := range o.Manager.Models() {
		if m.Kind == detect.KindSpecialized {
			specs++
		}
	}
	if specs == 0 {
		t.Fatal("no specialized model was trained after the label delay")
	}
	if st.Frames != 640 {
		t.Fatalf("frames %d", st.Frames)
	}
	if st.FPS() <= 0 {
		t.Fatal("simulated FPS should be positive")
	}
	// Memory: resident specialized/lite models, far below the baseline.
	if o.MemoryMB() >= detect.CostOf(detect.KindYOLO).SizeMB*float64(o.Manager.NumModels()) {
		t.Fatalf("memory %v not reduced vs heavyweight models", o.MemoryMB())
	}
}

func TestOdinStaticMode(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(7, scene)
	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))

	cfg := DefaultConfig(scene)
	cfg.DriftRecovery = false
	o := New(cfg, statsProjector{}, base)
	for i := 0; i < 20; i++ {
		r := o.Process(gen.GenerateSubset(synth.DayData))
		if len(r.ModelsUsed) != 1 || r.ModelsUsed[0] != "YOLO" {
			t.Fatalf("static mode must use only the baseline: %v", r.ModelsUsed)
		}
	}
	if o.Stats().DriftEvents != 0 {
		t.Fatal("static mode must not detect drift")
	}
	// Static FPS equals the heavyweight model's simulated FPS.
	want := detect.CostOf(detect.KindYOLO).FPS
	if math.Abs(o.Stats().FPS()-want) > 0.5 {
		t.Fatalf("static fps %v, want %v", o.Stats().FPS(), want)
	}
}

func TestOdinMaxClustersEvictsModels(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(8, scene)
	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	base.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, 40)), 2, 16)

	cfg := DefaultConfig(scene)
	cfg.Cluster = testClusterConfig()
	cfg.Cluster.MaxClusters = 2
	cfg.Spec.LiteEpochs = 2
	cfg.Spec.SpecEpochs = 2
	cfg.Spec.LabelDelay = 100
	o := New(cfg, statsProjector{}, base)

	for _, sub := range []synth.Subset{synth.DayData, synth.NightData, synth.SnowData} {
		for i := 0; i < 300; i++ {
			o.Process(gen.GenerateSubset(sub))
		}
	}
	if n := len(o.Detector.Clusters.Permanent); n > 2 {
		t.Fatalf("cluster count %d exceeds MaxClusters", n)
	}
	if o.Manager.NumModels() > 2 {
		t.Fatalf("model count %d exceeds MaxClusters", o.Manager.NumModels())
	}
}

// streamTestPipeline builds a deterministic pipeline for the sharding
// tests: seeded generator, fast-trained baseline, stub projector. Two calls
// produce bit-identical pipelines.
func streamTestPipeline(t *testing.T) *Odin {
	t.Helper()
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(6, scene)
	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	base.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, 60)), 4, 16)
	cfg := DefaultConfig(scene)
	cfg.Cluster = testClusterConfig()
	cfg.Spec.LiteEpochs = 3
	cfg.Spec.SpecEpochs = 4
	cfg.Spec.LabelDelay = 120
	cfg.Spec.MaxTrainFrames = 120
	return New(cfg, statsProjector{}, base)
}

// driftTestStream renders a two-phase drifting stream (day → night).
func driftTestStream(n int) []*synth.Frame {
	gen := synth.NewSceneGen(21, synth.DefaultSceneConfig())
	out := make([]*synth.Frame, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, gen.GenerateSubset(synth.DayData))
	}
	for i := 0; i < n; i++ {
		out = append(out, gen.GenerateSubset(synth.NightData))
	}
	return out
}

// requireResultsEqual asserts two per-frame results are identical —
// detections bit-for-bit, cluster assignments, drift events, models and
// simulated latency.
func requireResultsEqual(t *testing.T, tag string, i int, want, got Result) {
	t.Helper()
	if got.ClusterID != want.ClusterID {
		t.Fatalf("%s frame %d: cluster %d, want %d", tag, i, got.ClusterID, want.ClusterID)
	}
	if (got.Drift == nil) != (want.Drift == nil) {
		t.Fatalf("%s frame %d: drift presence mismatch", tag, i)
	}
	if got.Drift != nil && (got.Drift.Cluster.ID != want.Drift.Cluster.ID || got.Drift.AtPoint != want.Drift.AtPoint) {
		t.Fatalf("%s frame %d: drift event differs", tag, i)
	}
	if len(got.ModelsUsed) != len(want.ModelsUsed) {
		t.Fatalf("%s frame %d: models %v, want %v", tag, i, got.ModelsUsed, want.ModelsUsed)
	}
	for k := range got.ModelsUsed {
		if got.ModelsUsed[k] != want.ModelsUsed[k] {
			t.Fatalf("%s frame %d: models %v, want %v", tag, i, got.ModelsUsed, want.ModelsUsed)
		}
	}
	if got.SimLatency != want.SimLatency {
		t.Fatalf("%s frame %d: sim latency %v, want %v", tag, i, got.SimLatency, want.SimLatency)
	}
	if len(got.Detections) != len(want.Detections) {
		t.Fatalf("%s frame %d: %d detections, want %d", tag, i, len(got.Detections), len(want.Detections))
	}
	for k := range got.Detections {
		if got.Detections[k] != want.Detections[k] {
			t.Fatalf("%s frame %d: detection %d differs: %+v vs %+v", tag, i, k, got.Detections[k], want.Detections[k])
		}
	}
}

// TestProcessBatchMatchesSequential pins the sharded streaming path to the
// sequential one: for 1, 4 and 8 workers, ProcessBatch over a drifting
// stream must yield bit-identical detections, cluster assignments, drift
// events and stats. Run under -race in CI, this also proves the
// inference/drift synchronization split is data-race free.
func TestProcessBatchMatchesSequential(t *testing.T) {
	stream := driftTestStream(300)

	seq := streamTestPipeline(t)
	want := make([]Result, len(stream))
	for i, f := range stream {
		want[i] = seq.Process(f)
	}
	wantStats := seq.Stats()
	if wantStats.DriftEvents < 2 {
		t.Fatalf("setup: stream triggered only %d drift events; sharding paths untested", wantStats.DriftEvents)
	}

	for _, workers := range []int{1, 4, 8} {
		o := streamTestPipeline(t)
		window := 4 * workers
		if window < 8 {
			window = 8
		}
		got := make([]Result, 0, len(stream))
		for lo := 0; lo < len(stream); lo += window {
			hi := lo + window
			if hi > len(stream) {
				hi = len(stream)
			}
			got = append(got, o.ProcessBatch(stream[lo:hi], workers)...)
		}
		for i := range want {
			requireResultsEqual(t, fmt.Sprintf("workers=%d", workers), i, want[i], got[i])
		}
		if st := o.Stats(); st != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, wantStats)
		}
	}
}

// TestConcurrentStreamsShareModelSet runs two goroutines Process-ing
// frames against one shared pipeline. The interleaving is nondeterministic
// by nature; the test asserts race-freedom (via -race in CI), that every
// frame is served, and that drift recovery on the shared model set still
// happens.
func TestConcurrentStreamsShareModelSet(t *testing.T) {
	o := streamTestPipeline(t)
	streams := [][]*synth.Frame{driftTestStream(150), driftTestStream(150)}

	var wg sync.WaitGroup
	served := make([]int, len(streams))
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, f := range streams[s] {
				r := o.Process(f)
				if len(r.ModelsUsed) > 0 {
					served[s]++
				}
			}
		}(s)
	}
	wg.Wait()
	for s, n := range served {
		if n != 300 {
			t.Fatalf("stream %d: served %d of 300 frames", s, n)
		}
	}
	st := o.Stats()
	if st.Frames != 600 {
		t.Fatalf("frames %d, want 600", st.Frames)
	}
	if st.DriftEvents == 0 {
		t.Fatal("shared pipeline should have detected drift")
	}
}
