package detect

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"odin/internal/synth"
)

// countTestImgs renders a deterministic image set; the detector is used
// untrained (random head weights put roughly half the cells above the
// objectness threshold), which exercises decode, NMS and the score/class
// predicates heavily.
func countTestImgs(n int) []*synth.Image {
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(21, scene)
	imgs := make([]*synth.Image, n)
	for i := range imgs {
		imgs[i] = gen.GenerateSubset(synth.FullData).Image
	}
	return imgs
}

// TestCountBatchMatchesDetectBatch is the pushdown correctness gate: for
// every class/score combination, CountBatch must equal the filtered
// DetectBatch output exactly — both read decodeRow's survivors through
// CountClass's predicate.
func TestCountBatchMatchesDetectBatch(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(24)
	dets := g.DetectBatch(imgs)

	for _, class := range []int{-1, 0, 1, 3} {
		for _, minScore := range []float64{0, 0.25, 0.4, 0.8} {
			t.Run(fmt.Sprintf("class=%d,min=%.2f", class, minScore), func(t *testing.T) {
				counts := g.CountBatch(imgs, class, minScore)
				if len(counts) != len(imgs) {
					t.Fatalf("got %d counts for %d images", len(counts), len(imgs))
				}
				for i := range imgs {
					want := 0
					for _, d := range dets[i] {
						if d.Score >= minScore && (class < 0 || d.Box.Class == class) {
							want++
						}
					}
					if counts[i] != want {
						t.Fatalf("image %d: count %d, want %d", i, counts[i], want)
					}
				}
			})
		}
	}
}

// mallocsPerCall is the mean number of heap objects one call of fn
// allocates, measured at the process's real GOMAXPROCS.
// (testing.AllocsPerRun pins GOMAXPROCS to 1, which starves the tensor
// worker pool: job records queued for the helpers are not handed back
// between calls, so how many get reused is scheduler noise.) Mallocs counts
// the whole process, so each of three passes starts from a GC and the
// fewest wins: another goroutine's allocations can land in one pass, not
// in all three.
func mallocsPerCall(fn func()) float64 {
	const calls = 20
	for i := 0; i < 3; i++ {
		fn() // warm the scratch, workspace and job pools
	}
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/calls)
	}
	return best
}

// TestCountBatchBoxAllocFree pins the pushdown's promise: counting
// materialises no per-box or per-frame Detection slices. What a call
// allocates is a constant (the counts slice, pooled scratch churn, the
// range closures of its parallel kernel calls) that does not grow with the
// batch: the pin is the slope between a 16- and a 64-frame batch, so it
// holds at any core count. DetectBatch allocates one slice per frame with
// boxes, for the boxes.
func TestCountBatchBoxAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool reuse is randomised)")
	}
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	small, large := countTestImgs(16), countTestImgs(64)

	perSmall := mallocsPerCall(func() { g.CountBatch(small, -1, 0.3) })
	perLarge := mallocsPerCall(func() { g.CountBatch(large, -1, 0.3) })
	if slope := (perLarge - perSmall) / float64(len(large)-len(small)); slope >= 0.1 {
		t.Fatalf("CountBatch allocates %.2f objects per added frame (%.1f per call at %d frames, %.1f at %d); boxes are leaking into the counting path",
			slope, perSmall, len(small), perLarge, len(large))
	}

	detect := mallocsPerCall(func() { g.DetectBatch(small) })
	if detect <= perSmall {
		t.Fatalf("DetectBatch (%v allocs) should cost more than CountBatch (%v)", detect, perSmall)
	}
	t.Logf("allocs per call: CountBatch %.1f at %d frames, %.1f at %d; DetectBatch %.1f at %d",
		perSmall, len(small), perLarge, len(large), detect, len(small))
}

func BenchmarkCountBatch(b *testing.B) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountBatch(imgs, 0, 0.3)
	}
}

func BenchmarkDetectBatchCount(b *testing.B) {
	scene := synth.DefaultSceneConfig()
	g := NewGridDetector(YOLOConfig(scene.H, scene.W))
	imgs := countTestImgs(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, dets := range g.DetectBatch(imgs) {
			for _, d := range dets {
				if d.Score >= 0.3 && d.Box.Class == 0 {
					n++
				}
			}
		}
		_ = n
	}
}
