package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"odin/internal/detect"
	"odin/internal/qos"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// executeTestModels returns an untrained baseline, specialized and lite
// model: random weights clear the objectness threshold on about half the
// cells, so every frame decodes, suppresses and fuses a real set of boxes.
func executeTestModels() (base, spec, lite *Model) {
	scene := synth.DefaultSceneConfig()
	mk := func(cfg detect.GridConfig) *Model {
		return &Model{Kind: cfg.Kind, Det: detect.NewGridDetector(cfg), ClusterID: -1, Cost: detect.CostOf(cfg.Kind)}
	}
	return mk(detect.YOLOConfig(scene.H, scene.W)),
		mk(detect.SpecializedConfig(scene.H, scene.W)),
		mk(detect.LiteConfig(scene.H, scene.W))
}

// executeTestPlans is one plan of every shape the execute stage sees; a
// window cycles through them from a width-dependent offset, so every block
// boundary falls inside a different mix.
func executeTestPlans() []Plan {
	base, spec, lite := executeTestModels()
	sole := func(m *Model) []WeightedModel { return []WeightedModel{{Model: m, Weight: 1}} }
	pair := []WeightedModel{{Model: spec, Weight: 0.6}, {Model: lite, Weight: 0.4}}
	pushdown := &countSpec{class: 1, minScore: 0.3}
	return []Plan{
		{res: Result{ClusterID: 1, ModelGen: 2}, models: sole(spec)},
		{res: Result{ClusterID: 2, ModelGen: 2}, models: pair},
		{res: Result{ClusterID: -1, ModelGen: 2}, models: sole(base)},
		{res: Result{ClusterID: 1, Fidelity: qos.Count}, models: sole(lite), count: fidelityCount},
		{res: Result{ClusterID: 2}, models: pair, count: pushdown},
		{res: Result{ClusterID: 1}, models: sole(spec), count: pushdown},
		{res: Result{ClusterID: -1, Fidelity: qos.Skip, ModelGen: 2}},
		{res: Result{ClusterID: 3}, models: []WeightedModel{{Model: nil, Weight: 1}}},
		{res: Result{ClusterID: 3, RecoveryPending: true}, models: []WeightedModel{
			{Model: &Model{Kind: detect.KindLite}, Weight: 0.5}, {Model: lite, Weight: 0.5}}},
		{res: Result{ClusterID: 2}, models: []WeightedModel{
			{Model: lite, Weight: 0.2}, {Model: base, Weight: 0.3}, {Model: spec, Weight: 0.5}}},
	}
}

// TestExecuteAllMatchesExecute pins the block-sharded execute stage to the
// per-frame one: whatever the window width, the mix of plans in it and the
// worker count, results[i] is Execute(frames[i], plans[i]) — detections,
// ModelsUsed order and SimLatency bits included — with a count plan's
// detections counted and dropped.
func TestExecuteAllMatchesExecute(t *testing.T) {
	o := &Odin{}
	kinds := executeTestPlans()
	gen := synth.NewSceneGen(31, synth.DefaultSceneConfig())
	frames := gen.Dataset(synth.FullData, 64)

	detected := 0
	for _, width := range []int{1, 7, 8, 9, 17, 64} {
		plans := make([]Plan, width)
		want := make([]Result, width)
		for i := range plans {
			p := kinds[(i+width)%len(kinds)]
			plans[i] = p
			count := p.count
			p.count = nil
			want[i] = o.Execute(frames[i], p)
			detected += len(want[i].Detections)
			if count != nil {
				want[i].Count = countKept(want[i].Detections, count.class, count.minScore)
				want[i].Detections = nil
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got := o.executeAll(frames[:width], plans, workers)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("width %d workers %d frame %d (plan %d):\n got %+v\nwant %+v",
						width, workers, i, (i+width)%len(kinds), got[i], want[i])
				}
			}
		}
	}
	if detected == 0 {
		t.Fatal("setup: no plan detected anything; the comparison is vacuous")
	}
}

// latentStub projects an encoded frame to its first two values, so a test
// can place a frame anywhere in latent space by writing two pixels.
type latentStub struct{}

func (latentStub) LatentDim() int                { return 2 }
func (latentStub) Project(x []float64) []float64 { return []float64{x[0], x[1]} }

// TestProcessBatchHeapStaysFlat drives windows of every width from 1 to 64,
// with a share of ensemble frames that changes from window to window,
// through ProcessBatch and checks the heap stops growing after warm-up.
// The workspace pool keys on exact matrix size and never evicts, so a
// stage that asks for window-wide batches parks one matrix set per
// distinct width (over 100 MB in this run); block sharding asks for
// nothing wider than shardBlock.
func TestProcessBatchHeapStaysFlat(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	base, spec, lite := executeTestModels()
	cfg := DefaultConfig(scene)
	cfg.DownsampleFactor = 1 // the stub reads raw pixels
	cfg.AsyncTrain = true    // with the sink below: clusters may form, nothing trains
	o := New(cfg, latentStub{}, base.Det)
	o.SetTrainSink(func([]TrainJob) {})
	o.Detector.Clusters = buildClusterAt(t, [][]float64{{0, 0}, {10, 0}})
	o.Manager.byCluster[o.Detector.Clusters.Permanent[0].ID] = spec
	o.Manager.byCluster[o.Detector.Clusters.Permanent[1].ID] = lite

	// near frames sit where cluster 0 formed, so ∆-BM serves most of them
	// with its one model; far frames sit between the clusters, outside both
	// bands, and fall back to the two-model KNN-W ensemble.
	rng := tensor.NewRNG(5)
	pool := synth.NewSceneGen(32, scene).Dataset(synth.FullData, 64)
	near, far := pool[:32], pool[32:]
	for _, f := range near {
		f.Image.Pix[0], f.Image.Pix[1] = 0.3*rng.Norm(), 0.3*rng.Norm()
	}
	for _, f := range far {
		f.Image.Pix[0], f.Image.Pix[1] = 5+0.3*rng.Norm(), 0.3*rng.Norm()
	}

	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	const windows, warmup = 300, 60
	var after uint64
	single, ensemble := 0, 0
	window := make([]*synth.Frame, 0, 64)
	for w := 0; w < windows; w++ {
		if w == warmup {
			after = heapInUse()
		}
		width := 1 + rng.Intn(64)
		farShare := float64(rng.Intn(5)) / 4
		window = window[:0]
		for i := 0; i < width; i++ {
			from := near
			if rng.Float64() < farShare {
				from = far
			}
			window = append(window, from[rng.Intn(len(from))])
		}
		for _, r := range o.ProcessBatch(window, 2) {
			if len(r.ModelsUsed) > 1 {
				ensemble++
			} else {
				single++
			}
		}
	}
	if single == 0 || ensemble == 0 {
		t.Fatalf("setup: %d single-model and %d ensemble frames; the run needs both", single, ensemble)
	}
	const limit = 16 << 20
	end := heapInUse()
	t.Logf("heap in use: %d KB after %d windows, %d KB after %d", after>>10, warmup, end>>10, windows)
	if end > after+limit {
		t.Fatalf("heap in use grew from %d MB after %d windows to %d MB after %d: some stage pools per-width matrices",
			after>>20, warmup, end>>20, windows)
	}
}

// BenchmarkExecuteAll runs the execute stage over one 64-frame window:
// every frame on one specialized model, every frame on a two-model
// ensemble, and steady_1cam's mix of the two (two frames in five are
// ensembles), at one and two workers.
func BenchmarkExecuteAll(b *testing.B) {
	o := &Odin{}
	_, spec, lite := executeTestModels()
	sole := Plan{models: []WeightedModel{{Model: spec, Weight: 1}}}
	pair := Plan{models: []WeightedModel{{Model: spec, Weight: 0.6}, {Model: lite, Weight: 0.4}}}
	frames := synth.NewSceneGen(33, synth.DefaultSceneConfig()).Dataset(synth.FullData, 64)
	for _, mix := range []struct {
		name string
		plan func(i int) Plan
	}{
		{"single", func(int) Plan { return sole }},
		{"ensemble", func(int) Plan { return pair }},
		{"mixed", func(i int) Plan {
			if i%5 < 2 {
				return pair
			}
			return sole
		}},
	} {
		plans := make([]Plan, len(frames))
		for i := range plans {
			plans[i] = mix.plan(i)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", mix.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o.executeAll(frames, plans, workers)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(frames)), "us/frame")
			})
		}
	}
}
