package core

import (
	"errors"
	"testing"
	"time"

	"odin/internal/detect"
	"odin/internal/synth"
)

// asyncTestPipeline builds a deterministic pipeline with AsyncTrain on. With
// a sink, scheduled jobs go to it instead of landing inline.
func asyncTestPipeline(t *testing.T, sink func([]TrainJob)) (*Odin, *synth.SceneGen) {
	t.Helper()
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(6, scene)
	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	base.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, 60)), 4, 16)
	cfg := DefaultConfig(scene)
	cfg.Cluster = testClusterConfig()
	cfg.Spec.LiteEpochs = 2
	cfg.Spec.SpecEpochs = 2
	cfg.Spec.LabelDelay = 10_000 // keep the specialized job out of the way
	cfg.Spec.MaxTrainFrames = 120
	cfg.AsyncTrain = true
	o := New(cfg, statsProjector{}, base)
	if sink != nil {
		o.SetTrainSink(sink)
	}
	return o, gen
}

// driveToDrift processes frames until the first drift event and returns
// the frame count consumed.
func driveToDrift(t *testing.T, o *Odin, gen *synth.SceneGen, sub synth.Subset) int {
	t.Helper()
	for i := 0; i < 400; i++ {
		if r := o.Process(gen.GenerateSubset(sub)); r.Drift != nil {
			return i + 1
		}
	}
	t.Fatal("no drift event within 400 frames")
	return 0
}

// TestAsyncAdvanceSchedulesInsteadOfTraining is the observe/decide vs
// train split: with async training on, the drift stage returns training
// jobs through the sink instead of training under the lock, the model set
// stays empty (previous-best interim), and frames of the drifted cluster
// are flagged RecoveryPending until FinishJob swaps the model in.
func TestAsyncAdvanceSchedulesInsteadOfTraining(t *testing.T) {
	var jobs []TrainJob
	o, gen := asyncTestPipeline(t, func(js []TrainJob) { jobs = append(jobs, js...) })

	driveToDrift(t, o, gen, synth.DayData)
	if len(jobs) != 1 || jobs[0].Kind != detect.KindLite {
		t.Fatalf("drift should schedule exactly one lite job, got %+v", jobs)
	}
	if n := o.Manager.NumModels(); n != 0 {
		t.Fatalf("async drift trained %d models inline", n)
	}
	if o.Stats().PendingRecoveries != 1 {
		t.Fatalf("pending recoveries %d, want 1", o.Stats().PendingRecoveries)
	}
	if len(jobs[0].Frames) == 0 {
		t.Fatal("job carries no seed-frame snapshot")
	}

	// Interim: the drifted cluster's frames keep flowing, served by the
	// baseline and flagged as pending.
	sawPending := false
	for i := 0; i < 20; i++ {
		r := o.Process(gen.GenerateSubset(synth.DayData))
		if r.RecoveryPending {
			sawPending = true
			if r.ModelGen != 0 {
				t.Fatalf("interim frame reports generation %d before any swap", r.ModelGen)
			}
		}
	}
	if !sawPending {
		t.Fatal("no frame was flagged RecoveryPending while the job was outstanding")
	}

	// The swap: build on the snapshot (no lock needed), land it.
	m := o.Manager.BuildModel(jobs[0])
	if m == nil || m.Kind != detect.KindLite {
		t.Fatalf("BuildModel returned %+v", m)
	}
	if !o.FinishJob(jobs[0], m, time.Millisecond, nil) {
		t.Fatal("FinishJob rejected a healthy job")
	}
	if o.Stats().PendingRecoveries != 0 {
		t.Fatalf("pending recoveries %d after swap", o.Stats().PendingRecoveries)
	}
	if o.Manager.NumModels() != 1 {
		t.Fatalf("models resident %d after swap", o.Manager.NumModels())
	}
	if o.Stats().ModelGen != 1 {
		t.Fatalf("model generation %d after first swap", o.Stats().ModelGen)
	}
	r := o.Process(gen.GenerateSubset(synth.DayData))
	if r.RecoveryPending {
		t.Fatal("frame still flagged pending after the swap landed")
	}
	if r.ModelGen != 1 {
		t.Fatalf("post-swap frame reports generation %d", r.ModelGen)
	}
}

// TestAsyncTrainerFailureRollsBack: a failed training job must leave the
// prior model serving — here the baseline (no model was ever resident for
// the cluster) — and clear the pending flag.
func TestAsyncTrainerFailureRollsBack(t *testing.T) {
	var jobs []TrainJob
	o, gen := asyncTestPipeline(t, func(js []TrainJob) { jobs = append(jobs, js...) })
	driveToDrift(t, o, gen, synth.DayData)

	if o.FinishJob(jobs[0], nil, 0, errors.New("trainer crashed")) {
		t.Fatal("a failed job must not install")
	}
	if o.Manager.NumModels() != 0 || o.Stats().ModelGen != 0 {
		t.Fatalf("failed job mutated the model set: models=%d gen=%d", o.Manager.NumModels(), o.Stats().ModelGen)
	}
	if o.Stats().PendingRecoveries != 0 {
		t.Fatal("failed job left the recovery pending")
	}
	r := o.Process(gen.GenerateSubset(synth.DayData))
	if len(r.ModelsUsed) != 1 || r.ModelsUsed[0] != "YOLO" {
		t.Fatalf("rollback should keep the baseline serving, got %v", r.ModelsUsed)
	}
}

// TestAsyncEvictedClusterAbortsSwap: a model whose cluster was evicted
// while it trained must not be swapped in.
func TestAsyncEvictedClusterAbortsSwap(t *testing.T) {
	var jobs []TrainJob
	o, gen := asyncTestPipeline(t, func(js []TrainJob) { jobs = append(jobs, js...) })
	driveToDrift(t, o, gen, synth.DayData)

	m := o.Manager.BuildModel(jobs[0])
	o.mu.Lock()
	o.Manager.DropCluster(jobs[0].ClusterID)
	o.mu.Unlock()
	if o.FinishJob(jobs[0], m, time.Millisecond, nil) {
		t.Fatal("swap must abort for an evicted cluster")
	}
	if o.Manager.NumModels() != 0 {
		t.Fatal("evicted cluster got a model installed")
	}
}

// TestAsyncLiteNeverDowngradesSpecialized: if the specialized model lands
// before a straggling lite job, the lite swap is dropped.
func TestAsyncLiteNeverDowngradesSpecialized(t *testing.T) {
	var jobs []TrainJob
	o, gen := asyncTestPipeline(t, func(js []TrainJob) { jobs = append(jobs, js...) })
	driveToDrift(t, o, gen, synth.DayData)

	lite := jobs[0]
	spec := TrainJob{Kind: detect.KindSpecialized, ClusterID: lite.ClusterID,
		AtFrame: lite.AtFrame, Seed: lite.Seed + 1, Frames: lite.Frames}
	o.mu.Lock()
	o.Manager.outstanding[spec.ClusterID]++ // as MaturePending would
	o.mu.Unlock()

	if !o.FinishJob(spec, o.Manager.BuildModel(spec), time.Millisecond, nil) {
		t.Fatal("specialized swap failed")
	}
	if o.FinishJob(lite, o.Manager.BuildModel(lite), time.Millisecond, nil) {
		t.Fatal("late lite must not overwrite the specialized model")
	}
	if got := o.Manager.Models()[lite.ClusterID].Kind; got != detect.KindSpecialized {
		t.Fatalf("resident model is %v, want specialized", got)
	}
}

// TestAsyncWithoutSinkTrainsSynchronously: the sink is the only timing
// input. With no sink installed, an async pipeline builds and lands every
// job under the lock before its frame's selection, exactly as an inline
// one does, so over the same drifting stream — a lite and a specialized
// recovery — the two agree bit for bit: every result's fingerprint and the
// final stats.
func TestAsyncWithoutSinkTrainsSynchronously(t *testing.T) {
	async, genA := asyncTestPipeline(t, nil)
	inline, genI := asyncTestPipeline(t, nil)
	inline.Cfg.AsyncTrain = false
	for _, o := range []*Odin{async, inline} {
		o.Manager.Cfg.LabelDelay = 40 // the specialized job lands in the stream too
	}
	frame := 0
	for _, sub := range []synth.Subset{synth.DayData, synth.NightData} {
		for i := 0; i < 200; i++ {
			ra, ri := async.Process(genA.GenerateSubset(sub)), inline.Process(genI.GenerateSubset(sub))
			if fa, fi := ra.Fingerprint(), ri.Fingerprint(); fa != fi {
				t.Fatalf("frame %d: sinkless async %s, inline %s", frame, fa, fi)
			}
			if ra.RecoveryPending {
				t.Fatalf("frame %d served pending: its jobs should have landed first", frame)
			}
			frame++
		}
	}
	sa, si := async.Stats(), inline.Stats()
	if sa != si {
		t.Fatalf("stats diverged: sinkless async %+v, inline %+v", sa, si)
	}
	if sa.ModelGen < 2 || sa.PendingRecoveries != 0 {
		t.Fatalf("stats %+v: want a lite and a specialized landing, none pending", sa)
	}
}

// TestCountBatchMatchesProcessBatch: the pipeline-level COUNT pushdown
// advances drift state identically and produces counts equal to filtering
// the full path's detections.
func TestCountBatchMatchesProcessBatch(t *testing.T) {
	mkFrames := func(gen *synth.SceneGen) []*synth.Frame {
		var frames []*synth.Frame
		for _, sub := range []synth.Subset{synth.DayData, synth.NightData} {
			for i := 0; i < 150; i++ {
				frames = append(frames, gen.GenerateSubset(sub))
			}
		}
		return frames
	}

	full := streamTestPipeline(t)
	genA := synth.NewSceneGen(9, synth.DefaultSceneConfig())
	framesA := mkFrames(genA)
	var wantCounts []int
	const class, minScore = 0, 0.3
	for _, res := range full.ProcessBatch(framesA, 2) {
		wantCounts = append(wantCounts, detect.CountClass(res.Detections, class, minScore))
	}
	wantStats := full.Stats()
	if wantStats.DriftEvents == 0 {
		t.Fatal("count-pushdown stream produced no drift; the test would be vacuous")
	}

	counting := streamTestPipeline(t)
	genB := synth.NewSceneGen(9, synth.DefaultSceneConfig())
	framesB := mkFrames(genB)
	got := counting.CountBatch(framesB, 2, class, minScore)
	for i := range wantCounts {
		if got[i] != wantCounts[i] {
			t.Fatalf("frame %d: pushdown count %d, full-path count %d", i, got[i], wantCounts[i])
		}
	}
	if gs := counting.Stats(); gs != wantStats {
		t.Fatalf("pushdown stats diverged: got %+v want %+v", gs, wantStats)
	}
}
