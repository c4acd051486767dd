package detect

import (
	"math"
	"sync"
	"testing"

	"odin/internal/synth"
)

// tinySpecConfig returns a fast config for unit tests.
func tinySpecConfig() GridConfig {
	cfg := SpecializedConfig(27, 48)
	return cfg
}

func TestGridGeometry(t *testing.T) {
	d := NewGridDetector(tinySpecConfig())
	if d.GH != 7 || d.GW != 12 {
		t.Fatalf("grid %dx%d, want 7x12", d.GH, d.GW)
	}
	if d.Net.NumParams() <= 0 {
		t.Fatal("no parameters")
	}
}

func TestBuildTargets(t *testing.T) {
	d := NewGridDetector(tinySpecConfig())
	boxes := []synth.Box{{Class: synth.ClassCar, X: 10, Y: 12, W: 8, H: 4}}
	target, mask := d.buildTargets(boxes)
	// Centre (14, 14): cell x = 14/4 = 3, cell y = 14/(27/7)=14/3.857 = 3.
	nOn := 0
	for _, m := range mask {
		if m {
			nOn++
		}
	}
	if nOn != 1 {
		t.Fatalf("expected exactly 1 object cell, got %d", nOn)
	}
	cell := -1
	for i, m := range mask {
		if m {
			cell = i
		}
	}
	gy, gx := cell/d.GW, cell%d.GW
	if target[d.cellIndex(0, gy, gx)] != 1 {
		t.Fatal("objectness target not set")
	}
	if target[d.cellIndex(1+synth.ClassCar, gy, gx)] != 1 {
		t.Fatal("class target not set")
	}
	off := 1 + d.Cfg.Classes
	tw := target[d.cellIndex(off+2, gy, gx)]
	if math.Abs(tw-8.0/48) > 1e-9 {
		t.Fatalf("width target %v, want %v", tw, 8.0/48)
	}
}

func TestBuildTargetsCollisionKeepsLarger(t *testing.T) {
	d := NewGridDetector(tinySpecConfig())
	// Two boxes with the same centre cell; the larger must win.
	boxes := []synth.Box{
		{Class: synth.ClassPerson, X: 13, Y: 13, W: 2, H: 2},
		{Class: synth.ClassTruck, X: 10, Y: 11, W: 8, H: 6},
	}
	target, mask := d.buildTargets(boxes)
	cell := -1
	for i, m := range mask {
		if m {
			cell = i
		}
	}
	if cell < 0 {
		t.Fatal("no object cell")
	}
	gy, gx := cell/d.GW, cell%d.GW
	if target[d.cellIndex(1+synth.ClassTruck, gy, gx)] != 1 {
		t.Fatal("larger box (truck) should own the cell")
	}
}

func TestNMSSuppressesDuplicates(t *testing.T) {
	dets := []Detection{
		{Box: synth.Box{Class: 0, X: 10, Y: 10, W: 8, H: 4}, Score: 0.9},
		{Box: synth.Box{Class: 0, X: 10.5, Y: 10, W: 8, H: 4}, Score: 0.7}, // overlaps first
		{Box: synth.Box{Class: 0, X: 30, Y: 10, W: 8, H: 4}, Score: 0.8},   // distinct
		{Box: synth.Box{Class: 1, X: 10, Y: 10, W: 8, H: 4}, Score: 0.6},   // other class
	}
	keep := NMS(dets, 0.45)
	if len(keep) != 3 {
		t.Fatalf("NMS kept %d, want 3", len(keep))
	}
	if keep[0].Score != 0.9 {
		t.Fatal("NMS must keep highest score first")
	}
}

func TestNMSEmptyInput(t *testing.T) {
	if out := NMS(nil, 0.45); len(out) != 0 {
		t.Fatal("NMS of empty input should be empty")
	}
}

func TestMAPPerfectDetections(t *testing.T) {
	truth := [][]synth.Box{
		{{Class: 0, X: 5, Y: 5, W: 8, H: 4}, {Class: 1, X: 20, Y: 10, W: 6, H: 6}},
		{{Class: 0, X: 12, Y: 8, W: 8, H: 4}},
	}
	dets := [][]Detection{
		{{Box: truth[0][0], Score: 0.9}, {Box: truth[0][1], Score: 0.8}},
		{{Box: truth[1][0], Score: 0.95}},
	}
	res := MeanAveragePrecision(dets, truth, 0.5)
	if math.Abs(res.MAP-1) > 1e-9 {
		t.Fatalf("perfect detections should give mAP=1, got %v", res.MAP)
	}
	if res.Counts[0] != 2 || res.Counts[1] != 1 {
		t.Fatalf("GT counts wrong: %v", res.Counts)
	}
}

func TestMAPMissedAndSpurious(t *testing.T) {
	truth := [][]synth.Box{
		{{Class: 0, X: 5, Y: 5, W: 8, H: 4}, {Class: 0, X: 30, Y: 5, W: 8, H: 4}},
	}
	// One correct detection, one spurious, one GT missed.
	dets := [][]Detection{
		{
			{Box: truth[0][0], Score: 0.9},
			{Box: synth.Box{Class: 0, X: 20, Y: 20, W: 4, H: 4}, Score: 0.5},
		},
	}
	res := MeanAveragePrecision(dets, truth, 0.5)
	if res.MAP <= 0 || res.MAP >= 1 {
		t.Fatalf("partial detections should give 0<mAP<1: %v", res.MAP)
	}
}

func TestMAPDuplicateDetectionsPenalised(t *testing.T) {
	gt1 := synth.Box{Class: 0, X: 5, Y: 5, W: 8, H: 4}
	gt2 := synth.Box{Class: 0, X: 30, Y: 5, W: 8, H: 4}
	truth := [][]synth.Box{{gt1, gt2}}
	// A duplicate of gt1 outranks the gt2 match: the duplicate is an FP
	// in the middle of the ranking and must depress interpolated AP.
	dets := [][]Detection{{
		{Box: gt1, Score: 0.9},
		{Box: gt1, Score: 0.8}, // duplicate → FP
		{Box: gt2, Score: 0.7},
	}}
	res := MeanAveragePrecision(dets, truth, 0.5)
	// AP = 0.5·1 + 0.5·(2/3) = 0.8333…
	if math.Abs(res.MAP-5.0/6) > 1e-9 {
		t.Fatalf("duplicate-FP AP = %v, want %v", res.MAP, 5.0/6)
	}
}

func TestMAPEmpty(t *testing.T) {
	res := MeanAveragePrecision(nil, nil, 0.5)
	if res.MAP != 0 {
		t.Fatal("empty evaluation should be 0")
	}
}

func TestMAPMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanAveragePrecision(make([][]Detection, 2), make([][]synth.Box, 3), 0.5)
}

func TestDetectorLearns(t *testing.T) {
	gen := synth.NewSceneGen(7, synth.DefaultSceneConfig())
	train := gen.Dataset(synth.DayData, 250)
	test := gen.Dataset(synth.DayData, 40)

	d := NewGridDetector(tinySpecConfig())
	before := EvaluateDetector(d, test, 0.5).MAP
	first := d.TrainEpoch(SamplesFromFrames(train), 16)
	last := d.Fit(SamplesFromFrames(train), 24, 16)
	after := EvaluateDetector(d, test, 0.5).MAP
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if after <= before || after < 0.05 {
		t.Fatalf("detector failed to learn: before=%v after=%v", before, after)
	}
}

func TestSpecializationBeatsCrossDomain(t *testing.T) {
	gen := synth.NewSceneGen(9, synth.DefaultSceneConfig())
	trainNight := gen.Dataset(synth.NightData, 250)
	testNight := gen.Dataset(synth.NightData, 40)

	spec := NewGridDetector(tinySpecConfig())
	spec.Fit(SamplesFromFrames(trainNight), 25, 16)

	dayCfg := tinySpecConfig()
	dayCfg.Seed = 11
	specDay := NewGridDetector(dayCfg)
	specDay.Fit(SamplesFromFrames(gen.Dataset(synth.DayData, 250)), 25, 16)

	own := EvaluateDetector(spec, testNight, 0.5).MAP
	cross := EvaluateDetector(specDay, testNight, 0.5).MAP
	if own <= cross {
		t.Fatalf("night specialist (%v) must beat day specialist (%v) on night data", own, cross)
	}
}

func TestDistillationApproximatesTeacher(t *testing.T) {
	gen := synth.NewSceneGen(13, synth.DefaultSceneConfig())
	train := gen.Dataset(synth.DayData, 300)
	test := gen.Dataset(synth.DayData, 40)

	teacher := NewGridDetector(tinySpecConfig())
	teacher.Fit(SamplesFromFrames(train), 45, 16)
	tMAP := EvaluateDetector(teacher, test, 0.5).MAP

	// Student trained only on teacher outputs — no ground truth.
	distilled := DistillSamples(teacher, train, 0.4)
	liteCfg := LiteConfig(27, 48)
	student := NewGridDetector(liteCfg)
	student.Fit(distilled, 45, 16)
	sMAP := EvaluateDetector(student, test, 0.5).MAP

	if tMAP < 0.1 {
		t.Fatalf("teacher too weak for the test: %v", tMAP)
	}
	// The student must recover a meaningful share of teacher accuracy.
	if sMAP < tMAP*0.35 {
		t.Fatalf("student mAP %v too far below teacher %v", sMAP, tMAP)
	}
}

func TestDetectBatchMatchesSingle(t *testing.T) {
	gen := synth.NewSceneGen(17, synth.DefaultSceneConfig())
	frames := gen.Dataset(synth.DayData, 4)
	d := NewGridDetector(tinySpecConfig())
	imgs := make([]*synth.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	batch := d.DetectBatch(imgs)
	for i, f := range frames {
		single := d.Detect(f.Image)
		if len(single) != len(batch[i]) {
			t.Fatalf("frame %d: batch %d dets, single %d", i, len(batch[i]), len(single))
		}
	}
	if d.DetectBatch(nil) != nil {
		t.Fatal("empty batch should return nil")
	}
}

func TestCountClass(t *testing.T) {
	dets := []Detection{
		{Box: synth.Box{Class: 0}, Score: 0.9},
		{Box: synth.Box{Class: 0}, Score: 0.3},
		{Box: synth.Box{Class: 1}, Score: 0.9},
	}
	if CountClass(dets, 0, 0.5) != 1 {
		t.Fatal("CountClass with threshold")
	}
	if CountClass(dets, 0, 0) != 2 {
		t.Fatal("CountClass without threshold")
	}
	if CountClass(dets, -1, 0.5) != 2 {
		t.Fatal("CountClass with class < 0 must count every class")
	}
}

func TestKindString(t *testing.T) {
	if KindYOLO.String() != "YOLO" || KindSpecialized.String() != "YOLO-SPECIALIZED" || KindLite.String() != "YOLO-LITE" {
		t.Fatal("kind names")
	}
}

// --- Cost model tests: these pin the Table 4 reproduction. ---

func TestCostModelMatchesPaperTable4(t *testing.T) {
	yolo := CostOf(KindYOLO)
	lite := CostOf(KindLite)
	spec := CostOf(KindSpecialized)

	// Paper Table 4: YOLO 237 MB / 24 FPS; tiny 35 MB / 140 FPS;
	// pruned tiny 34 MB / 144 FPS. Allow a few percent of slack.
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	if !within(yolo.SizeMB, 237, 0.05) {
		t.Fatalf("YOLO size %.1f MB, paper 237", yolo.SizeMB)
	}
	if !within(yolo.FPS, 24, 0.05) {
		t.Fatalf("YOLO FPS %.1f, paper 24", yolo.FPS)
	}
	if !within(lite.SizeMB, 35, 0.06) {
		t.Fatalf("Lite size %.1f MB, paper 35", lite.SizeMB)
	}
	if !within(lite.FPS, 140, 0.05) {
		t.Fatalf("Lite FPS %.1f, paper 140", lite.FPS)
	}
	if !within(spec.SizeMB, 34, 0.06) {
		t.Fatalf("Specialized size %.1f MB, paper 34", spec.SizeMB)
	}
	if !within(spec.FPS, 144, 0.08) {
		t.Fatalf("Specialized FPS %.1f, paper 144", spec.FPS)
	}
	// The headline ratios: specialized ≈6× faster and ≈7× smaller.
	if r := spec.FPS / yolo.FPS; r < 5.5 || r > 7 {
		t.Fatalf("speedup ratio %.2f outside the paper's ~6x", r)
	}
	if r := float64(yolo.Params) / float64(spec.Params); r < 6 || r > 8 {
		t.Fatalf("parameter ratio %.2f outside the paper's ~7x", r)
	}
}

func TestPrunedArchHas9Layers(t *testing.T) {
	if n := len(PrunedTinyArch().Layers); n != 9 {
		t.Fatalf("pruned arch has %d conv layers, paper says 9", n)
	}
}

func TestArchFLOPsPositiveAndOrdered(t *testing.T) {
	y := YOLOv3Arch().FLOPs()
	tn := YOLOv3TinyArch().FLOPs()
	p := PrunedTinyArch().FLOPs()
	if !(y > tn && tn > p && p > 0) {
		t.Fatalf("FLOPs ordering violated: yolo=%d tiny=%d pruned=%d", y, tn, p)
	}
}

func TestDeviceFPSMonotone(t *testing.T) {
	d := PaperDevice()
	fast := Device{Name: "fast", FLOPS: d.FLOPS * 2, PerFrameOverhead: d.PerFrameOverhead}
	a := YOLOv3Arch()
	if fast.FPS(a) <= d.FPS(a) {
		t.Fatal("faster device must give higher FPS")
	}
}

func TestSamplesFromFrames(t *testing.T) {
	gen := synth.NewSceneGen(21, synth.DefaultSceneConfig())
	frames := gen.Dataset(synth.DayData, 3)
	samples := SamplesFromFrames(frames)
	if len(samples) != 3 {
		t.Fatal("sample count")
	}
	for i := range samples {
		if samples[i].Image != frames[i].Image || len(samples[i].Boxes) != len(frames[i].Boxes) {
			t.Fatal("sample content mismatch")
		}
	}
}

// TestDetectSteadyStateAllocs pins the streaming hot path: the per-frame
// Detect input wrapper is recycled (vecWrap) and the whole inference pass
// draws from the workspace pool, so a frame that decodes no boxes costs at
// most the parallel-loop closure headers (ROADMAP: "recycle the remaining
// inference paths").
func TestDetectSteadyStateAllocs(t *testing.T) {
	d := NewGridDetector(tinySpecConfig())
	// An impossible threshold isolates the network pass from the (output)
	// detection slices, which are real results and legitimately allocate.
	d.ScoreThreshold = 2
	gen := synth.NewSceneGen(13, synth.DefaultSceneConfig())
	img := gen.GenerateSubset(synth.DayData).Image

	d.Detect(img) // warm the pool
	avg := testing.AllocsPerRun(20, func() { d.Detect(img) })
	// Residue: three parallel-loop closure headers per conv layer; every
	// matrix (input wrapper included) is recycled.
	if avg > 12 {
		t.Fatalf("Detect allocates %.0f/op at steady state, want recycled wrapper + pooled pass (≤12)", avg)
	}

	// With every cell firing, decoding and suppressing run in pooled
	// scratch: the frame's kept boxes are its one extra allocation. (The
	// race detector randomises sync.Pool reuse, so it cannot hold there.)
	if raceEnabled {
		return
	}
	d.ScoreThreshold = 0
	if k := len(d.Detect(img)); k == 0 {
		t.Fatal("no box survived with every cell firing")
	}
	if boxes := testing.AllocsPerRun(20, func() { d.Detect(img) }); boxes != avg+1 {
		t.Fatalf("Detect allocates %.0f/op with boxes, %.0f without: want exactly one more (the kept boxes)", boxes, avg)
	}
}

// TestDetectConcurrentMatchesSequential pins concurrent Detect calls on one
// shared detector to the sequential results — the property the sharded
// stream pipeline relies on when several workers serve frames from the
// same model.
func TestDetectConcurrentMatchesSequential(t *testing.T) {
	gen := synth.NewSceneGen(17, synth.DefaultSceneConfig())
	cfg := tinySpecConfig()
	cfg.H, cfg.W = synth.DefaultSceneConfig().H, synth.DefaultSceneConfig().W
	d := NewGridDetector(cfg)
	d.ScoreThreshold = 0.4 // random net hovers near 0.5; keep some boxes
	const n = 8
	imgs := make([]*synth.Image, n)
	want := make([][]Detection, n)
	for i := range imgs {
		imgs[i] = gen.GenerateSubset(synth.DayData).Image
		want[i] = d.Detect(imgs[i])
	}
	var wg sync.WaitGroup
	bad := make(chan string, 1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % n
				got := d.Detect(imgs[i])
				if len(got) != len(want[i]) {
					select {
					case bad <- "detection count diverged under concurrency":
					default:
					}
					return
				}
				for k := range got {
					if got[k] != want[i][k] {
						select {
						case bad <- "detection diverged under concurrency":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(bad)
	if msg, ok := <-bad; ok {
		t.Fatal(msg)
	}
}
