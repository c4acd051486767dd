package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/dispatch"
	"odin/internal/exp"
	"odin/internal/gan"
	"odin/internal/registry"
	"odin/internal/synth"
)

// The fleet-recovery benchmark measures cross-camera correlated recovery
// (DESIGN.md §9) on the dawn scenario: four cameras sharing a bootstrap
// substrate each live through a stable night phase, then dawn breaks on all
// of them. Without the registry every camera trains its own night and day
// recoveries from scratch — 4× identical work. With a shared model registry
// the first camera to claim each regime builds it and the rest adopt or
// coalesce, so the number of scratch trainings is per-regime, not
// per-camera.
//
// Each arm drives four core pipelines round-robin in fixed windows from one
// goroutine, with a trainer Wait barrier after every round so recoveries
// land at deterministic window boundaries. That makes the registry-on runs
// bit-reproducible, which the bench asserts by re-running the on arm across
// worker counts and comparing per-camera result fingerprints.
//
// Gates (the JSON lands on disk first so a regression still leaves the
// series for debugging):
//   - registry-on scratch trainings ≤ half of registry-off (the ≥2×
//     reduction headline), with adopt+coalesce hits > 0;
//   - per-camera drift-event and cluster counts identical on/off — the
//     registry changes recovery cost, never detection behaviour;
//   - registry-on fingerprints bit-identical across 1/4/8 workers.

// fleetRecoveryResult is the JSON document written to -fleetrecoveryout.
type fleetRecoveryResult struct {
	Scale           string `json:"scale"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Cameras         int    `json:"cameras"`
	FramesPerCamera int    `json:"frames_per_camera"`
	Workers         []int  `json:"workers_swept"`

	Off fleetRecoveryArm `json:"registry_off"`
	On  fleetRecoveryArm `json:"registry_on"`

	ScratchReduction float64 `json:"scratch_reduction_off_over_on"`
	Deterministic    bool    `json:"on_bit_identical_across_workers"`
}

// fleetRecoveryArm summarises one arm: aggregated trainer counters,
// per-camera detection behaviour, and the per-camera result fingerprints of
// the workers=1 run.
type fleetRecoveryArm struct {
	Scratch   int `json:"scratch_trainings"`
	Warm      int `json:"warm_trainings"`
	Adopted   int `json:"adopted"`
	Coalesced int `json:"coalesced"`
	Trained   int `json:"trained_total"`
	Failed    int `json:"failed"`

	DriftEvents  []int    `json:"drift_events_per_camera"`
	Clusters     []int    `json:"clusters_per_camera"`
	Fingerprints []string `json:"fingerprints_per_camera"`

	AdoptHits    int `json:"registry_adopt_hits,omitempty"`
	CoalesceHits int `json:"registry_coalesce_hits,omitempty"`
	WarmHits     int `json:"registry_warm_hits,omitempty"`
	Misses       int `json:"registry_misses,omitempty"`
	Published    int `json:"registry_published,omitempty"`
}

type fleetRecoveryParams struct {
	bootFrames, bootEpochs, baselineEpochs int
	cameras, nightFrames, dayFrames        int
	window, liteEpochs                     int
}

func fleetRecoveryParamsFor(scale exp.Scale) fleetRecoveryParams {
	if scale == exp.Full {
		return fleetRecoveryParams{
			bootFrames: 600, bootEpochs: 8, baselineEpochs: 40,
			cameras: 4, nightFrames: 80, dayFrames: 160,
			window: 20, liteEpochs: 12,
		}
	}
	return fleetRecoveryParams{
		bootFrames: 150, bootEpochs: 2, baselineEpochs: 6,
		cameras: 4, nightFrames: 60, dayFrames: 100,
		window: 20, liteEpochs: 6,
	}
}

// fleetSubstrate is the shared bootstrap state every camera pipeline (and
// both arms) runs on: one DA-GAN projector and one baseline detector,
// trained once. Sharing it is what makes regime signatures comparable
// across cameras — and keeps the bench fast.
type fleetSubstrate struct {
	scene    synth.SceneConfig
	proj     gan.Projector
	baseline *detect.GridDetector
}

func buildFleetSubstrate(p fleetRecoveryParams) fleetSubstrate {
	scene := synth.DefaultSceneConfig()
	// Bootstrap on night only so dawn is genuinely out of distribution.
	boot := synth.NewSceneGen(91, scene).Dataset(synth.NightData, p.bootFrames)
	enc := core.DownsampleEncoder(2)
	dagan := core.TrainDAGAN(boot, enc, gan.Config{
		InputDim: core.EncodedDim(scene, 2),
		Latent:   16,
		Hidden:   []int{128, 48},
		LR:       0.001,
		Seed:     98,
	}, p.bootEpochs, 32)
	baseCfg := detect.YOLOConfig(scene.H, scene.W)
	baseCfg.Seed = 99
	baseline := detect.NewGridDetector(baseCfg)
	baseline.Fit(detect.SamplesFromFrames(boot), p.baselineEpochs, 16)
	return fleetSubstrate{scene: scene, proj: dagan, baseline: baseline}
}

// fleetCameraFrames regenerates the per-camera frame sequences for one run:
// every camera draws its own night and day frames from one seeded
// generator, so the sequences are identical across arms and worker counts
// but differ between cameras (same regimes, different frames).
func fleetCameraFrames(p fleetRecoveryParams, scene synth.SceneConfig) [][]*synth.Frame {
	gen := synth.NewSceneGen(137, scene)
	cams := make([][]*synth.Frame, p.cameras)
	for c := range cams {
		cams[c] = append(gen.Dataset(synth.NightData, p.nightFrames),
			gen.Dataset(synth.DayData, p.dayFrames)...)
	}
	return cams
}

// newFleetPipeline assembles one camera's async drift pipeline on the
// shared substrate, with the quick cluster profile (per-camera pipelines
// see each concept only once, so promotion must not need hundreds of
// frames) and lite-only recoveries.
func newFleetPipeline(p fleetRecoveryParams, sub fleetSubstrate) *core.Odin {
	cfg := core.DefaultConfig(sub.scene)
	cfg.Cluster.MinPoints = 40
	cfg.Cluster.StabilitySteps = 10
	cfg.Cluster.TempWindow = 80
	cfg.Spec.LiteEpochs = p.liteEpochs
	cfg.Spec.LabelDelay = 1 << 20 // lite-only: one recovery per regime
	cfg.Spec.MaxTrainFrames = 120
	cfg.AsyncTrain = true
	return core.New(cfg, sub.proj, sub.baseline)
}

// runFleetRecoveryArm drives the camera fleet through the dawn scenario and
// returns the arm summary. shared is the fleet registry (nil for the off
// arm). Cameras advance round-robin in windows of p.window frames from this
// goroutine, with a Wait barrier on every trainer after each round.
func runFleetRecoveryArm(p fleetRecoveryParams, sub fleetSubstrate, shared *registry.Registry, workers int) (fleetRecoveryArm, error) {
	cams := fleetCameraFrames(p, sub.scene)
	pipes := make([]*core.Odin, p.cameras)
	trainers := make([]*dispatch.Trainer, p.cameras)
	for c := range pipes {
		pipes[c] = newFleetPipeline(p, sub)
		trainers[c] = dispatch.NewTrainer(pipes[c])
		if shared != nil {
			trainers[c].AttachRegistry(shared, fmt.Sprintf("cam%d", c), registry.DefaultPolicy())
		}
	}
	defer func() {
		for _, tr := range trainers {
			tr.Close()
		}
	}()

	hashes := make([]string, p.cameras)
	fps := make([]hash.Hash64, p.cameras)
	for c := range fps {
		fps[c] = fnv.New64a()
	}

	total := p.nightFrames + p.dayFrames
	for start := 0; start < total; start += p.window {
		end := start + p.window
		if end > total {
			end = total
		}
		for c, pipe := range pipes {
			for _, r := range pipe.ProcessBatch(cams[c][start:end], workers) {
				fps[c].Write([]byte(r.Fingerprint()))
				fps[c].Write([]byte{'\n'})
			}
		}
		// Barrier: every scheduled recovery lands (or rolls back) before the
		// next round, so model swaps hit deterministic window boundaries.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		for _, tr := range trainers {
			if err := tr.Wait(ctx); err != nil {
				cancel()
				return fleetRecoveryArm{}, fmt.Errorf("fleet-recovery bench: recovery did not converge: %w", err)
			}
		}
		cancel()
	}

	var arm fleetRecoveryArm
	for c, tr := range trainers {
		st := tr.Stats()
		arm.Scratch += st.Scratch
		arm.Warm += st.Warm
		arm.Adopted += st.Adopted
		arm.Coalesced += st.Coalesced
		arm.Trained += st.Trained
		arm.Failed += st.Failed
		arm.DriftEvents = append(arm.DriftEvents, pipes[c].Stats().DriftEvents)
		arm.Clusters = append(arm.Clusters, pipes[c].NumClusters())
		hashes[c] = fmt.Sprintf("%016x", fps[c].Sum64())
	}
	arm.Fingerprints = hashes
	if shared != nil {
		rst := shared.Stats()
		arm.AdoptHits = rst.AdoptHits
		arm.CoalesceHits = rst.Coalesced
		arm.WarmHits = rst.WarmHits
		arm.Misses = rst.Misses
		arm.Published = rst.Published
	}
	return arm, nil
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalStrings reports element-wise equality.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runFleetRecoveryBench measures cross-camera correlated recovery and
// writes BENCH_fleet_recovery.json under outDir; human-readable output goes
// to w.
func runFleetRecoveryBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := fleetRecoveryParamsFor(scale)
	sub := buildFleetSubstrate(p)
	workersSweep := []int{1, 4, 8}

	doc := fleetRecoveryResult{
		Scale: scale.String(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cameras: p.cameras, FramesPerCamera: p.nightFrames + p.dayFrames,
		Workers: workersSweep,
	}

	fmt.Fprintf(w, "Fleet recovery (dawn scenario: %d cameras × %d night + %d day frames, shared substrate)\n",
		p.cameras, p.nightFrames, p.dayFrames)

	off, err := runFleetRecoveryArm(p, sub, nil, 1)
	if err != nil {
		return err
	}
	doc.Off = off
	fmt.Fprintf(w, "  registry off: %2d scratch trainings   drifts=%v clusters=%v\n",
		off.Scratch, off.DriftEvents, off.Clusters)

	// Registry-on across the worker sweep: each run gets a fresh registry
	// (adoption within a run is the measurement; carrying entries across
	// runs would trivialise it).
	var on fleetRecoveryArm
	doc.Deterministic = true
	for i, workers := range workersSweep {
		reg := registry.New(16)
		arm, err := runFleetRecoveryArm(p, sub, reg, workers)
		if err != nil {
			return err
		}
		if i == 0 {
			on = arm
		} else if !equalStrings(arm.Fingerprints, on.Fingerprints) {
			doc.Deterministic = false
			fmt.Fprintf(w, "  registry on (workers=%d): FINGERPRINT MISMATCH %v vs %v\n",
				workers, arm.Fingerprints, on.Fingerprints)
			continue
		}
		fmt.Fprintf(w, "  registry on (workers=%d): %2d scratch + %d adopted + %d coalesced + %d warm   drifts=%v clusters=%v\n",
			workers, arm.Scratch, arm.Adopted, arm.Coalesced, arm.Warm, arm.DriftEvents, arm.Clusters)
	}
	doc.On = on
	if on.Scratch > 0 {
		doc.ScratchReduction = float64(off.Scratch) / float64(on.Scratch)
	}
	fmt.Fprintf(w, "  scratch-training reduction: %.1fx   (registry: %d misses, %d adopt, %d coalesce, %d warm)\n",
		doc.ScratchReduction, on.Misses, on.AdoptHits, on.CoalesceHits, on.WarmHits)

	if err := writeJSON(outDir, "fleet_recovery", doc, w); err != nil {
		return err
	}

	// Gates — after the JSON lands so a regression leaves the series behind.
	if off.Scratch == 0 {
		return fmt.Errorf("fleet-recovery bench: registry-off arm trained nothing; the scenario is vacuous")
	}
	if on.Scratch*2 > off.Scratch {
		return fmt.Errorf("fleet-recovery bench: scratch trainings only dropped from %d to %d (< 2x)", off.Scratch, on.Scratch)
	}
	if on.Adopted+on.Coalesced == 0 {
		return fmt.Errorf("fleet-recovery bench: no adoption or coalescing happened")
	}
	if !equalInts(on.DriftEvents, off.DriftEvents) || !equalInts(on.Clusters, off.Clusters) {
		return fmt.Errorf("fleet-recovery bench: registry changed detection behaviour: drifts %v vs %v, clusters %v vs %v",
			on.DriftEvents, off.DriftEvents, on.Clusters, off.Clusters)
	}
	if on.Failed > 0 || off.Failed > 0 {
		return fmt.Errorf("fleet-recovery bench: recoveries failed (on=%d off=%d)", on.Failed, off.Failed)
	}
	if !doc.Deterministic {
		return fmt.Errorf("fleet-recovery bench: registry-on results differ across worker counts")
	}
	return nil
}
