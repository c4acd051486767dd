package core

import (
	"odin/internal/cluster"
	"odin/internal/detect"
	"odin/internal/synth"
)

// Model is one deployed detection model managed by the MODELMANAGER.
type Model struct {
	Kind      detect.Kind
	Det       *detect.GridDetector
	ClusterID int // -1 for the non-specialized baseline
	Cost      detect.Cost
	CreatedAt int // frame index at creation
	TrainedOn int // number of training frames
}

// Name renders the model for logs and results.
func (m *Model) Name() string {
	if m == nil {
		return "none"
	}
	return m.Kind.String()
}

// SpecializerConfig tunes the §5 drift-recovery behaviour.
type SpecializerConfig struct {
	LiteEpochs int // epochs for the distilled YOLO-Lite student
	SpecEpochs int // epochs for the oracle-labelled YOLO-Specialized model
	Batch      int

	// MaxTrainFrames caps the per-cluster training buffer.
	MaxTrainFrames int
	// LabelDelay is the number of stream frames after a drift event until
	// oracle labels become available (§5.2: lite first, specialized after
	// labels arrive). Zero trains the specialized model immediately.
	LabelDelay int
	// DistillMinScore filters teacher detections used as student labels.
	DistillMinScore float64
}

// DefaultSpecializerConfig returns the configuration used in experiments.
func DefaultSpecializerConfig() SpecializerConfig {
	return SpecializerConfig{
		LiteEpochs:      25,
		SpecEpochs:      40,
		Batch:           16,
		MaxTrainFrames:  400,
		LabelDelay:      600,
		DistillMinScore: 0.4,
	}
}

// pendingSpec tracks a cluster awaiting oracle labels.
type pendingSpec struct {
	clusterID int
	readyAt   int
}

// TrainJob is one deferred specializer-training task: everything needed to
// build a model off the serving path. Frames is a snapshot taken when the
// job was scheduled (under the pipeline lock), so an async trainer never
// races the live per-cluster buffer; Seed is drawn at schedule time, so the
// seed sequence is identical whether training runs inline or deferred.
type TrainJob struct {
	Kind      detect.Kind
	ClusterID int
	AtFrame   int // pipeline frame counter when the job was scheduled
	Seed      uint64
	Frames    []*synth.Frame

	// Sig is the cluster's drift-regime signature at schedule time, stamped
	// under the pipeline lock so a fleet registry can match the job against
	// other cameras' recoveries. Nil when the cluster is already gone or no
	// registry consumer is attached — such jobs always build from scratch.
	Sig *cluster.Signature
}

// ModelManager owns the baseline model and the per-cluster specialized
// models, and implements the SPECIALIZER (Algorithm 2's model-generation
// half): on drift it immediately distills a YOLO-Lite from the baseline's
// outputs, then swaps in an oracle-trained YOLO-Specialized once labels
// arrive.
type ModelManager struct {
	Cfg   SpecializerConfig
	Scene synth.SceneConfig

	Baseline *Model

	byCluster  map[int]*Model
	mostRecent *Model
	buffers    map[int][]*synth.Frame
	pending    []pendingSpec
	seq        uint64

	// async defers training: OnDrift/MaturePending return TrainJobs instead
	// of training inline, and a background trainer lands them via install.
	async bool
	// gen is the model-set generation: it increments on every model swap
	// (inline or async), so results can be attributed to the exact model
	// set that served them.
	gen uint64
	// outstanding counts scheduled-but-unlanded jobs per cluster — the
	// "recovery pending" signal surfaced on results while the interim
	// (previous-best) model serves.
	outstanding map[int]int
}

// NewModelManager wraps a baseline detector.
func NewModelManager(cfg SpecializerConfig, scene synth.SceneConfig, baseline *detect.GridDetector) *ModelManager {
	var base *Model
	if baseline != nil {
		base = &Model{
			Kind:      detect.KindYOLO,
			Det:       baseline,
			ClusterID: -1,
			Cost:      detect.CostOf(detect.KindYOLO),
		}
	}
	return &ModelManager{
		Cfg:         cfg,
		Scene:       scene,
		Baseline:    base,
		byCluster:   make(map[int]*Model),
		buffers:     make(map[int][]*synth.Frame),
		outstanding: make(map[int]int),
	}
}

// SetAsync switches the manager between inline training (the default:
// OnDrift/MaturePending train and swap before returning) and deferred
// training (they return TrainJobs for a background trainer). Call before
// serving frames.
func (mm *ModelManager) SetAsync(on bool) { mm.async = on }

// Gen returns the current model-set generation.
func (mm *ModelManager) Gen() uint64 { return mm.gen }

// Outstanding returns the total number of scheduled-but-unlanded jobs.
func (mm *ModelManager) Outstanding() int {
	total := 0
	for _, n := range mm.outstanding {
		total += n
	}
	return total
}

// pendingFor reports whether frames of cluster id are currently served by
// an interim model while a recovery trains: the cluster itself has an
// outstanding job, or the frame is an outlier (id < 0) while any recovery
// is in flight.
func (mm *ModelManager) pendingFor(id int) bool {
	if id < 0 {
		return len(mm.outstanding) > 0
	}
	return mm.outstanding[id] > 0
}

// Models returns the live cluster→model map (not to be mutated).
func (mm *ModelManager) Models() map[int]*Model { return mm.byCluster }

// NumModels returns the number of resident specialized/lite models.
func (mm *ModelManager) NumModels() int { return len(mm.byCluster) }

// MemoryMB returns the simulated resident memory: the per-cluster models
// once they exist, otherwise the heavyweight baseline.
func (mm *ModelManager) MemoryMB() float64 {
	if len(mm.byCluster) == 0 {
		if mm.Baseline == nil {
			return 0
		}
		return mm.Baseline.Cost.SizeMB
	}
	var total float64
	for _, m := range mm.byCluster {
		total += m.Cost.SizeMB
	}
	return total
}

// AddFrame buffers a frame for its assigned cluster (Algorithm 2 line 5).
func (mm *ModelManager) AddFrame(clusterID int, f *synth.Frame) {
	buf := mm.buffers[clusterID]
	if len(buf) >= mm.Cfg.MaxTrainFrames {
		// Reservoir-free: keep the newest frames by sliding.
		copy(buf, buf[1:])
		buf[len(buf)-1] = f
		mm.buffers[clusterID] = buf
		return
	}
	mm.buffers[clusterID] = append(buf, f)
}

// OnDrift reacts to a cluster promotion: seeds the new cluster's buffer,
// arranges an immediate YOLO-Lite student from the baseline's outputs, and
// schedules the oracle-labelled specialized model. Inline mode trains and
// swaps before returning (nil result); async mode returns the training
// jobs for a background trainer and keeps serving with the previous-best
// model in the interim.
func (mm *ModelManager) OnDrift(ev *cluster.DriftEvent, seeds []*synth.Frame, atFrame int) []TrainJob {
	id := ev.Cluster.ID
	buf := append([]*synth.Frame(nil), seeds...)
	if len(buf) > mm.Cfg.MaxTrainFrames {
		buf = buf[len(buf)-mm.Cfg.MaxTrainFrames:]
	}
	mm.buffers[id] = buf

	if ev.Evicted != nil {
		mm.DropCluster(ev.Evicted.ID)
	}

	var jobs []TrainJob
	// Immediate lite model from teacher outputs — no labels needed.
	if mm.Baseline != nil && len(buf) > 0 && mm.Cfg.LiteEpochs > 0 {
		jobs = mm.dispatch(jobs, TrainJob{
			Kind: detect.KindLite, ClusterID: id, AtFrame: atFrame,
			Seed: mm.nextSeed(), Frames: mm.snapshot(buf),
		})
	}

	mm.pending = append(mm.pending, pendingSpec{clusterID: id, readyAt: atFrame + mm.Cfg.LabelDelay})
	return append(jobs, mm.MaturePending(atFrame)...)
}

// MaturePending arranges oracle-labelled specialized models for clusters
// whose label delay has elapsed (§5.2: specialized replaces lite) — inline
// or as returned jobs, matching OnDrift.
func (mm *ModelManager) MaturePending(atFrame int) []TrainJob {
	var jobs []TrainJob
	var remaining []pendingSpec
	for _, p := range mm.pending {
		if atFrame < p.readyAt {
			remaining = append(remaining, p)
			continue
		}
		buf := mm.buffers[p.clusterID]
		if len(buf) == 0 {
			continue // cluster evicted or empty; drop silently
		}
		jobs = mm.dispatch(jobs, TrainJob{
			Kind: detect.KindSpecialized, ClusterID: p.clusterID, AtFrame: atFrame,
			Seed: mm.nextSeed(), Frames: mm.snapshot(buf),
		})
	}
	mm.pending = remaining
	return jobs
}

// snapshot freezes a training buffer for a deferred job. Inline training
// consumes the buffer before the lock is released, so only async mode pays
// for the copy (the live buffer slides in place under AddFrame).
func (mm *ModelManager) snapshot(buf []*synth.Frame) []*synth.Frame {
	if !mm.async {
		return buf
	}
	return append([]*synth.Frame(nil), buf...)
}

// dispatch either trains a job inline (swap before returning) or queues it
// for the background trainer, bumping the cluster's outstanding count.
func (mm *ModelManager) dispatch(jobs []TrainJob, job TrainJob) []TrainJob {
	if mm.async {
		mm.outstanding[job.ClusterID]++
		return append(jobs, job)
	}
	mm.install(job, mm.BuildModel(job))
	return jobs
}

// BuildModel trains the job's model from scratch. It reads only immutable
// manager state (config, scene, the frozen baseline detector) and the job's
// frame snapshot, so it is safe to run outside the pipeline lock — the
// async trainer's whole point. The swap happens separately via
// Odin.FinishJob.
func (mm *ModelManager) BuildModel(job TrainJob) *Model {
	return mm.buildModel(job, nil)
}

// BuildModelFrom trains the job's model warm-started from another model's
// weights — the fleet-recovery path where a regime-adjacent model from a
// correlated camera seeds training. The warm model must be the same kind;
// on kind or architecture mismatch training silently falls back to scratch
// (the warm start is an optimisation, never a correctness requirement). A
// successful weight copy halves the epoch budget: the borrowed weights are
// already near a regime optimum, and the shortened fit is where the fleet's
// aggregate recovery cost drops. Like BuildModel, safe outside the lock.
func (mm *ModelManager) BuildModelFrom(job TrainJob, from *Model) *Model {
	if from == nil || from.Det == nil || from.Kind != job.Kind {
		from = nil
	}
	return mm.buildModel(job, from)
}

func (mm *ModelManager) buildModel(job TrainJob, warm *Model) *Model {
	switch job.Kind {
	case detect.KindLite:
		cfg := detect.LiteConfig(mm.Scene.H, mm.Scene.W)
		cfg.Seed = job.Seed
		lite := detect.NewGridDetector(cfg)
		epochs := mm.Cfg.LiteEpochs
		if warm != nil && lite.CopyWeightsFrom(warm.Det) == nil {
			epochs = (epochs + 1) / 2
		}
		samples := detect.DistillSamples(mm.Baseline.Det, job.Frames, mm.Cfg.DistillMinScore)
		lite.Fit(samples, epochs, mm.Cfg.Batch)
		return &Model{
			Kind: detect.KindLite, Det: lite, ClusterID: job.ClusterID,
			Cost: detect.CostOf(detect.KindLite), CreatedAt: job.AtFrame, TrainedOn: len(job.Frames),
		}
	case detect.KindSpecialized:
		cfg := detect.SpecializedConfig(mm.Scene.H, mm.Scene.W)
		cfg.Seed = job.Seed
		spec := detect.NewGridDetector(cfg)
		epochs := mm.Cfg.SpecEpochs
		if warm != nil && spec.CopyWeightsFrom(warm.Det) == nil {
			epochs = (epochs + 1) / 2
		}
		spec.Fit(detect.SamplesFromFrames(job.Frames), epochs, mm.Cfg.Batch)
		return &Model{
			Kind: detect.KindSpecialized, Det: spec, ClusterID: job.ClusterID,
			Cost: detect.CostOf(detect.KindSpecialized), CreatedAt: job.AtFrame, TrainedOn: len(job.Frames),
		}
	}
	return nil
}

// install swaps a trained model in and stamps the bookkeeping: the
// cluster→model pointer, the most-recent pointer and the generation
// counter. Caller holds the pipeline lock.
func (mm *ModelManager) install(job TrainJob, m *Model) {
	mm.byCluster[job.ClusterID] = m
	mm.mostRecent = m
	mm.gen++
}

// finishJob lands (or rolls back) a deferred job under the pipeline lock:
// the outstanding count always drops, and the swap is skipped — leaving the
// prior model serving — when training failed, the cluster was evicted
// mid-training, or a specialized model already superseded a late lite.
func (mm *ModelManager) finishJob(job TrainJob, m *Model, failed bool) bool {
	if n := mm.outstanding[job.ClusterID]; n <= 1 {
		delete(mm.outstanding, job.ClusterID)
	} else {
		mm.outstanding[job.ClusterID] = n - 1
	}
	if failed || m == nil {
		return false
	}
	if _, live := mm.buffers[job.ClusterID]; !live {
		return false // cluster evicted while the job trained
	}
	if cur := mm.byCluster[job.ClusterID]; cur != nil &&
		cur.Kind == detect.KindSpecialized && job.Kind == detect.KindLite {
		return false // never downgrade a landed specialized model
	}
	mm.install(job, m)
	return true
}

// DropCluster removes the model and buffer of an evicted cluster (§6.5
// model-count threshold).
func (mm *ModelManager) DropCluster(clusterID int) {
	delete(mm.byCluster, clusterID)
	delete(mm.buffers, clusterID)
	var remaining []pendingSpec
	for _, p := range mm.pending {
		if p.clusterID != clusterID {
			remaining = append(remaining, p)
		}
	}
	mm.pending = remaining
}

func (mm *ModelManager) nextSeed() uint64 {
	mm.seq++
	return 1000 + mm.seq
}
