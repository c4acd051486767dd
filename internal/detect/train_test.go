package detect

import (
	"math"
	"runtime"
	"testing"

	"odin/internal/nn"
	"odin/internal/synth"
)

// trainSamples renders n day frames as training samples.
func trainSamples(seed uint64, n int) []Sample {
	gen := synth.NewSceneGen(seed, synth.DefaultSceneConfig())
	return SamplesFromFrames(gen.Dataset(synth.DayData, n))
}

// epochBytes returns the bytes one TrainEpoch allocates once a first epoch
// has sized the caches, scratch and workspace: the fewest of three, each
// after a GC, since TotalAlloc counts the whole process.
func epochBytes(g *GridDetector, samples []Sample, batch int) uint64 {
	g.TrainEpoch(samples, batch)
	best := uint64(math.MaxUint64)
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.TrainEpoch(samples, batch)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestTrainEpochAllocs pins what a warm training epoch allocates: the phase
// planes and x̂ come from the workspace, whose capacity classes serve a
// short last batch from a full batch's buffers, and the loss works in
// per-detector scratch, so an epoch of 37 samples at batch 16 (a 5-sample
// last batch) allocates none of them. What remains is small and per batch: parameter lists,
// the epoch's permutation and the parallel kernels' closures.
func TestTrainEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const limit = 64 << 10
	samples := trainSamples(21, 37)
	for _, cfg := range []GridConfig{LiteConfig(27, 48), YOLOConfig(27, 48)} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			if b := epochBytes(NewGridDetector(cfg), samples, 16); b > limit {
				t.Fatalf("a warm epoch allocates %d bytes, want at most %d", b, limit)
			}
		})
	}
}

// paramBits returns every weight of g as its bit pattern.
func paramBits(g *GridDetector) []uint64 {
	var bits []uint64
	for _, p := range g.Net.Params() {
		for _, v := range p.W.V {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestFitBitIdenticalWarmScratch trains one detector twice from the same
// start, once cold and once after other training has left every buffer
// warm and dirty: the workspace, planes and x̂ included, at a larger batch
// than the run uses, and the loss scratch. Both runs must end on the same bits.
func TestFitBitIdenticalWarmScratch(t *testing.T) {
	samples := trainSamples(23, 37)
	other := trainSamples(29, 50)
	for _, cfg := range []GridConfig{LiteConfig(27, 48), YOLOConfig(27, 48)} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			g := NewGridDetector(cfg)
			start := g.State()
			coldLoss := g.Fit(samples, 3, 16)
			cold := paramBits(g)

			g.Fit(other, 1, 16)
			g.TrainEpoch(other, 24) // leaves planes and x̂ at 24 rows
			if err := nn.RestoreState(g.Net, start.Net); err != nil {
				t.Fatal(err)
			}
			g.rng.SetState(start.RNG)
			g.opt = nn.NewAdam(cfg.LR)
			warmLoss := g.Fit(samples, 3, 16)

			if math.Float64bits(warmLoss) != math.Float64bits(coldLoss) {
				t.Fatalf("loss %v after dirty scratch, %v cold", warmLoss, coldLoss)
			}
			warm := paramBits(g)
			for i := range cold {
				if warm[i] != cold[i] {
					t.Fatalf("weight %d differs: %x after dirty scratch, %x cold", i, warm[i], cold[i])
				}
			}
		})
	}
}

// TestFitDropsTrainCaches: a finished Fit leaves the detector no loss
// scratch, while TrainEpoch alone keeps it for the next epoch. The network's
// own batch buffers go back at every Backward (TestBackwardHandsBackBatchBuffers
// in internal/nn).
func TestFitDropsTrainCaches(t *testing.T) {
	samples := trainSamples(31, 21)
	g := NewGridDetector(YOLOConfig(27, 48))
	g.TrainEpoch(samples, 16)
	if g.loss == nil {
		t.Fatal("TrainEpoch dropped the loss scratch: want it kept")
	}
	g.Fit(samples, 1, 16)
	if g.loss != nil {
		t.Fatal("Fit left the loss scratch")
	}
}

// BenchmarkTrainEpoch reports what one warm lite epoch costs: 37 samples at
// batch 16, so every epoch ends on a 5-sample batch.
func BenchmarkTrainEpoch(b *testing.B) {
	samples := trainSamples(21, 37)
	g := NewGridDetector(LiteConfig(27, 48))
	g.TrainEpoch(samples, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TrainEpoch(samples, 16)
	}
}
