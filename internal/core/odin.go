package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/cluster"
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/obs"
	"odin/internal/qos"
	"odin/internal/synth"
)

// Config assembles a full ODIN pipeline.
type Config struct {
	Scene            synth.SceneConfig
	DownsampleFactor int // frame → projector input reduction (default 2)
	Cluster          cluster.Config
	Selector         Selector
	Spec             SpecializerConfig

	// DriftRecovery disables the DETECTOR/SPECIALIZER/SELECTOR stack when
	// false, leaving the static heavyweight baseline — the paper's
	// "static system" comparison point.
	DriftRecovery bool

	// AsyncTrain defers drift-triggered specializer training off the
	// serving path: Advance schedules TrainJobs (handed to the sink set
	// with SetTrainSink) instead of training under the lock, and frames
	// are served by the previous-best model until the trained model is
	// swapped in via FinishJob. False keeps the deterministic inline
	// behaviour.
	AsyncTrain bool
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig(scene synth.SceneConfig) Config {
	return Config{
		Scene:            scene,
		DownsampleFactor: 2,
		Cluster:          cluster.DefaultConfig(),
		Selector:         Selector{Policy: PolicyDeltaBM, K: 4},
		Spec:             DefaultSpecializerConfig(),
		DriftRecovery:    true,
	}
}

// Result is the outcome of processing one frame.
type Result struct {
	Detections []detect.Detection
	// ClusterID is the primary cluster assignment (-1 when the frame was
	// an outlier routed to the temporary cluster).
	ClusterID int
	// Drift is non-nil when this frame triggered a drift event.
	Drift *cluster.DriftEvent
	// ModelsUsed names the models that served this frame.
	ModelsUsed []string
	// SimLatency is the simulated per-frame GPU time (seconds) of the
	// models that ran, from the architecture cost model.
	SimLatency float64
	// ModelGen is the model-set generation that served this frame; it
	// increments every time a trained model is swapped in, so a latency or
	// accuracy sample can be attributed to the exact model set behind it.
	ModelGen uint64
	// RecoveryPending marks a frame served while a drift recovery was
	// still training (async mode): its cluster had a scheduled-but-unlanded
	// training job, so the previous-best model served it in the interim.
	// Always false with inline training.
	RecoveryPending bool
	// Fidelity is the treatment level the QoS layer chose for this frame
	// (qos.Full unless load-adaptive degradation was active).
	Fidelity qos.Fidelity
	// Count is the frame's detection count under count-pushdown fidelity,
	// where Detections are never materialised. Zero otherwise.
	Count int
}

// Fingerprint reduces the Result to a comparable summary for determinism
// checks: the sharded path must reproduce sequential results exactly, so
// the facade tests and bench/'s steady_1cam workload compare fingerprints
// frame by frame. Drift events are identified by cluster label and seed
// count because cluster pointers differ across separately constructed
// pipelines.
func (r Result) Fingerprint() string {
	drift := ""
	if r.Drift != nil {
		drift = fmt.Sprintf("%s/%d", r.Drift.Cluster.Label, r.Drift.NumSeeds)
	}
	return fmt.Sprintf("c=%d m=%v d=%s g=%d p=%v f=%s n=%d lat=%.9f dets=%v",
		r.ClusterID, r.ModelsUsed, drift, r.ModelGen, r.RecoveryPending, r.Fidelity, r.Count, r.SimLatency, r.Detections)
}

// Stats aggregates pipeline telemetry. The per-fidelity counters split
// Frames by the QoS treatment level each frame was advanced at; on paths
// that never degrade, every frame counts as full fidelity. Dropped counts
// frames shed by admission control before reaching the pipeline (they are
// not part of Frames).
type Stats struct {
	Frames      int
	Outliers    int
	DriftEvents int
	SimTime     float64 // total simulated GPU seconds

	FullFrames  int
	LiteFrames  int
	CountFrames int
	SkipFrames  int
	Dropped     int
}

// FPS returns the simulated end-to-end throughput so far.
func (s Stats) FPS() float64 {
	if s.SimTime <= 0 {
		return 0
	}
	return float64(s.Frames) / s.SimTime
}

// bufferedOutlier pairs an outlier frame with its latent projection so
// drift-time seed filtering can test cluster membership.
type bufferedOutlier struct {
	frame  *synth.Frame
	latent []float64
}

// Odin is the end-to-end system of Figure 3: DETECTOR → (SPECIALIZER on
// drift) → SELECTOR → detection.
//
// Concurrency model: per-frame processing is split into three stages so N
// streams can share one model set.
//
//	Project — pure: frame → DA-GAN latent. Lock-free; the projector is
//	          immutable after construction.
//	Advance — mutating: cluster assignment, outlier buffering, drift
//	          handling, specializer training and model selection. This is
//	          the single explicit synchronization point (mu); calls are
//	          serialized in frame order, and the returned Plan freezes the
//	          selected models so later mutations cannot affect this frame.
//	Execute — pure: runs the Plan's models on the frame and fuses
//	          detections. Lock-free; deployed models are immutable once
//	          trained (drift swaps pointers in Advance, it never retrains
//	          a deployed model in place).
//
// Process composes the three sequentially; ProcessBatch cuts the pure
// stages into blocks of frames sharded across a bounded worker pool,
// producing bit-identical results (see processbatch.go).
type Odin struct {
	Cfg      Config
	Detector *Detector
	Manager  *ModelManager

	// mu guards every mutation of shared pipeline state: the cluster set,
	// the outlier ring, the model manager's maps and the stats counters.
	mu          sync.Mutex
	outlierRing []bufferedOutlier
	stats       Stats

	// pendingJobs collects training jobs scheduled by the drift stage
	// (async mode); they are drained after the lock is released and handed
	// to sink, so training never runs under mu.
	pendingJobs []TrainJob
	sink        func([]TrainJob)

	// obsv is the optional observability hook (stage timings, lifecycle
	// events). Strictly observational: nothing read from it feeds back into
	// processing. Atomic so hot-path loads never contend with mu.
	obsv atomic.Pointer[obs.Observer]
}

// New assembles ODIN from a trained projector and a baseline heavyweight
// detector. The projector is the DA-GAN encoder trained on bootstrap data
// (§4.4); the baseline plays the role of the pre-trained YOLO teacher.
func New(cfg Config, proj gan.Projector, baseline *detect.GridDetector) *Odin {
	enc := DownsampleEncoder(cfg.DownsampleFactor)
	mm := NewModelManager(cfg.Spec, cfg.Scene, baseline)
	mm.SetAsync(cfg.AsyncTrain)
	return &Odin{
		Cfg:      cfg,
		Detector: NewDetector(proj, cfg.Cluster, enc),
		Manager:  mm,
	}
}

// SetTrainSink installs the consumer of async training jobs (typically a
// dispatch.Trainer). The sink is invoked outside the pipeline lock, on the
// goroutine whose Advance scheduled the jobs, and must not block for long —
// queue and return. Install it before serving frames. Without a sink,
// async-scheduled jobs are trained synchronously on the scheduling
// goroutine (off the lock, but on the serving path), so recoveries are
// never silently dropped.
func (o *Odin) SetTrainSink(fn func([]TrainJob)) {
	o.mu.Lock()
	o.sink = fn
	o.mu.Unlock()
}

// SetObserver installs (or, with nil, removes) the observability hook.
// Instrumentation is strictly observational — installing an observer must
// not change any Result. Install before serving to capture every frame.
func (o *Odin) SetObserver(ob *obs.Observer) {
	o.obsv.Store(ob)
}

// observer returns the current observability hook (nil when disabled; every
// obs method is nil-receiver-safe).
func (o *Odin) observer() *obs.Observer {
	return o.obsv.Load()
}

// FinishJob lands a deferred training job: the trained model is swapped in
// atomically under the pipeline lock (bumping the model generation), or —
// when training failed, the model is nil, or the cluster was evicted while
// the job trained — the swap is skipped and the prior model keeps serving
// (rollback). The cluster's pending-recovery count drops either way.
// Returns whether the model was installed.
func (o *Odin) FinishJob(job TrainJob, m *Model, dur time.Duration, trainErr error) bool {
	o.mu.Lock()
	installed := o.Manager.finishJob(job, m, trainErr != nil)
	gen := int(o.Manager.Gen())
	o.mu.Unlock()
	if ob := o.observer(); ob != nil {
		switch {
		case installed:
			ob.Event(obs.EvRecoverySwapped, "", job.ClusterID, gen,
				fmt.Sprintf("build %.1fms", dur.Seconds()*1e3))
		case trainErr != nil:
			ob.Event(obs.EvRecoveryFailed, "", job.ClusterID, gen, trainErr.Error())
		default:
			ob.Event(obs.EvRecoveryRollback, "", job.ClusterID, gen, "")
		}
	}
	return installed
}

// PendingRecoveries returns the number of scheduled training jobs whose
// models have not been swapped in yet (always 0 with inline training).
func (o *Odin) PendingRecoveries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.Manager.Outstanding()
}

// ModelGen returns the current model-set generation.
func (o *Odin) ModelGen() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.Manager.Gen()
}

// Stats returns aggregate telemetry.
func (o *Odin) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// MemoryMB returns the simulated resident model memory.
func (o *Odin) MemoryMB() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.Manager.MemoryMB()
}

// NumClusters returns the number of permanent concept clusters.
func (o *Odin) NumClusters() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.Detector.Clusters.Permanent)
}

// NumModels returns the number of resident specialized/lite models.
func (o *Odin) NumModels() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.Manager.NumModels()
}

// Plan is the frozen outcome of Advance for one frame: the partial result
// (cluster assignment, drift event) plus the captured model selection that
// Execute will run. Capturing the selection is what decouples the ordered,
// mutating drift stage from the parallel detection stage.
type Plan struct {
	res    Result
	models []WeightedModel
	// count, when set, makes the batched execute stage count the plan's
	// detections under the spec instead of materialising them (the Count
	// fidelity and the query COUNT pushdown).
	count *countSpec
}

// Project computes the frame's DA-GAN latent — stage one of the pipeline.
// It reads only immutable state and may run concurrently with everything.
// Returns nil in static (no drift recovery) mode, where no projection is
// needed.
func (o *Odin) Project(f *synth.Frame) []float64 {
	if !o.Cfg.DriftRecovery {
		return nil
	}
	return o.Detector.Project(f.Image)
}

// Advance runs the serialized drift stage for one frame: cluster
// observation, outlier buffering, drift-triggered training, and model
// selection. z must be the frame's Project output (nil in static mode).
// Frames must be advanced in stream order for reproducible cluster
// evolution; the mutex serializes concurrent streams.
func (o *Odin) Advance(f *synth.Frame, z []float64) Plan {
	o.mu.Lock()
	p := o.advanceLocked(f, z, qos.Full)
	jobs := o.pendingJobs
	o.pendingJobs = nil
	o.mu.Unlock()
	o.submitJobs(jobs)
	return p
}

// submitJobs hands freshly scheduled training jobs to the sink, outside
// the pipeline lock. With no sink installed the jobs train synchronously
// here — still off the lock, so concurrent streams keep serving, but on
// this goroutine's serving path.
func (o *Odin) submitJobs(jobs []TrainJob) {
	if len(jobs) == 0 {
		return
	}
	ob := o.observer()
	for i := range jobs {
		ob.Event(obs.EvRecoveryEnqueued, "", jobs[i].ClusterID, -1, "")
	}
	o.mu.Lock()
	sink := o.sink
	o.mu.Unlock()
	if sink != nil {
		sink(jobs)
		return
	}
	for _, job := range jobs {
		start := time.Now()
		m := o.Manager.BuildModel(job)
		dur := time.Since(start)
		ob.Event(obs.EvRecoveryScratch, "", job.ClusterID, -1, "inline")
		ob.BuildSeconds("scratch", dur)
		o.FinishJob(job, m, dur, nil)
	}
}

// advanceLocked is Advance with o.mu held (ProcessBatch holds it across a
// whole batch). fid is the QoS treatment level: Skip short-circuits the
// whole drift stage (no cluster observation, no drift bookkeeping — the
// frame was shed except for its place in the result stream), Lite and
// Count degrade the selection to its single cheapest model, Full changes
// nothing.
func (o *Odin) advanceLocked(f *synth.Frame, z []float64, fid qos.Fidelity) Plan {
	o.stats.Frames++
	switch fid {
	case qos.Lite:
		o.stats.LiteFrames++
	case qos.Count:
		o.stats.CountFrames++
	case qos.Skip:
		o.stats.SkipFrames++
	default:
		o.stats.FullFrames++
	}

	if fid == qos.Skip {
		return Plan{res: Result{
			ClusterID: -1,
			Fidelity:  qos.Skip,
			ModelGen:  o.Manager.Gen(),
		}}
	}

	if !o.Cfg.DriftRecovery {
		return Plan{
			res:    Result{ClusterID: -1, Fidelity: fid},
			models: []WeightedModel{{Model: o.Manager.Baseline, Weight: 1}},
			count:  countFor(fid),
		}
	}

	a := o.Detector.Clusters.Observe(z)
	res := Result{ClusterID: -1}
	if a.Outlier {
		o.stats.Outliers++
		o.bufferOutlier(f, z)
	} else if a.Primary != nil {
		res.ClusterID = a.Primary.ID
		o.Manager.AddFrame(a.Primary.ID, f)
	}
	if a.Drift != nil {
		o.stats.DriftEvents++
		res.Drift = a.Drift
		seeds := o.takeOutliers(a.Drift.Cluster)
		o.pendingJobs = append(o.pendingJobs, o.Manager.OnDrift(a.Drift, seeds, o.stats.Frames)...)
		if ob := o.observer(); ob != nil {
			ob.Event(obs.EvDrift, "", a.Drift.Cluster.ID, int(o.Manager.Gen()),
				fmt.Sprintf("%s/%d seeds", a.Drift.Cluster.Label, a.Drift.NumSeeds))
		}
	}
	o.pendingJobs = append(o.pendingJobs, o.Manager.MaturePending(o.stats.Frames)...)
	// Stamp each freshly scheduled job with its cluster's regime signature
	// while the lock still freezes the cluster set — the snapshot a fleet
	// registry matches against. Stamping at schedule time keeps the
	// signature deterministic under deterministic driving.
	for i := range o.pendingJobs {
		j := &o.pendingJobs[i]
		if j.Sig == nil {
			if c := o.Detector.Clusters.ByID(j.ClusterID); c != nil {
				sig := c.Signature()
				j.Sig = &sig
			}
		}
	}

	// SELECTOR: pick the ensemble, fall back to the baseline when no
	// specialized model exists yet. With async training the fallback IS the
	// interim policy: a drifted cluster has no model until its job lands,
	// so the previous-best selection (neighbouring cluster models or the
	// baseline) keeps serving, flagged via RecoveryPending.
	selection := o.Manager.selectFor(z, o.Detector.Clusters, o.Cfg.Selector)
	if len(selection) == 0 {
		selection = []WeightedModel{{Model: o.Manager.Baseline, Weight: 1}}
	}
	// Degraded fidelities collapse the selection to its single cheapest
	// model: ensembles and specialized-over-lite preferences cost more
	// than overload allows.
	if fid == qos.Lite || fid == qos.Count {
		selection = cheapestSingle(selection)
	}
	res.Fidelity = fid
	res.ModelGen = o.Manager.Gen()
	res.RecoveryPending = o.Manager.pendingFor(res.ClusterID)
	return Plan{res: res, models: selection, count: countFor(fid)}
}

// countFor returns the count spec a fidelity executes under: the Count
// fidelity counts every detection, every other level materialises them.
func countFor(fid qos.Fidelity) *countSpec {
	if fid == qos.Count {
		return fidelityCount
	}
	return nil
}

// cheapestSingle reduces a selection to its single cheapest model —
// highest simulated FPS, ties broken by selection order, so the choice is
// deterministic for a given plan.
func cheapestSingle(sel []WeightedModel) []WeightedModel {
	best := -1
	for i, wm := range sel {
		if wm.Model == nil || wm.Model.Det == nil {
			continue
		}
		if best < 0 || wm.Model.Cost.FPS > sel[best].Model.Cost.FPS {
			best = i
		}
	}
	if best < 0 {
		return sel
	}
	return []WeightedModel{{Model: sel[best].Model, Weight: 1}}
}

// Execute runs the Plan's captured models on the frame and fuses their
// detections — stage three. It reads only the frozen Plan and immutable
// model weights, so any number of Executes may run concurrently; simulated
// time is accounted separately (addSimTime) to keep this stage pure.
func (o *Odin) Execute(f *synth.Frame, p Plan) Result {
	sets := make([][]detect.Detection, 0, 4) // stays on the stack at this size
	for _, wm := range p.models {
		if wm.runs() {
			sets = append(sets, wm.Model.Det.Detect(f.Image))
		}
	}
	return p.assemble(sets)
}

// runs reports whether a selected model can execute: a selection may name a
// model whose detector was never built, and every stage skips it.
func (wm WeightedModel) runs() bool { return wm.Model != nil && wm.Model.Det != nil }

// assemble completes the plan's Result from its models' detections, one
// set per model that runs, in plan order: names and simulated latency add
// up in that order, one set passes through, several fuse, and a count spec
// has the outcome counted and dropped. Execute and executeAll both end
// here, so how a set was computed cannot show in the Result.
func (p Plan) assemble(sets [][]detect.Detection) Result {
	res := p.res
	weights := make([]float64, 0, 4) // likewise
	for _, wm := range p.models {
		if !wm.runs() {
			continue
		}
		weights = append(weights, wm.Weight)
		res.ModelsUsed = append(res.ModelsUsed, wm.Model.Name())
		if wm.Model.Cost.FPS > 0 {
			res.SimLatency += 1 / wm.Model.Cost.FPS
		}
	}
	if len(sets) == 1 {
		res.Detections = sets[0]
	} else if len(sets) > 1 {
		res.Detections = FuseDetections(sets, weights)
	}
	if c := p.count; c != nil {
		res.Count = countKept(res.Detections, c.class, c.minScore)
		res.Detections = nil
	}
	return res
}

// addSimTime accumulates simulated GPU seconds in frame order, so the
// sharded and sequential paths produce bit-identical stats.
func (o *Odin) addSimTime(t float64) {
	o.mu.Lock()
	o.stats.SimTime += t
	o.mu.Unlock()
}

// AddDropped records n frames shed by admission control before they
// reached the pipeline, so Server.Stats() surfaces queue drops alongside
// the processed-frame counters.
func (o *Odin) AddDropped(n int) {
	if n <= 0 {
		return
	}
	o.mu.Lock()
	o.stats.Dropped += n
	o.mu.Unlock()
}

// selectFor adapts the Selector to the manager's internal maps.
func (mm *ModelManager) selectFor(z []float64, clusters *cluster.Set, sel Selector) []WeightedModel {
	return sel.Select(z, clusters, mm.byCluster, mm.mostRecent)
}

// Process runs one frame through the pipeline: Project → Advance → Execute.
func (o *Odin) Process(f *synth.Frame) Result {
	ob := o.observer()
	t0 := ob.Now()
	z := o.Project(f)
	ob.Stage(obs.StageProject, t0, 1)
	t0 = ob.Now()
	p := o.Advance(f, z)
	ob.Stage(obs.StageAdvance, t0, 1)
	t0 = ob.Now()
	res := o.Execute(f, p)
	ob.Stage(obs.StageDetect, t0, 1)
	o.addSimTime(res.SimLatency)
	return res
}

// bufferOutlier keeps the recent outlier frames aligned with the
// temporary cluster's sliding window; they become the training seeds of
// the next promoted cluster. Caller holds o.mu.
func (o *Odin) bufferOutlier(f *synth.Frame, z []float64) {
	limit := o.Cfg.Cluster.TempWindow
	if limit <= 0 {
		limit = 200
	}
	o.outlierRing = append(o.outlierRing, bufferedOutlier{frame: f, latent: z})
	if len(o.outlierRing) > limit {
		o.outlierRing = o.outlierRing[1:]
	}
}

// takeOutliers drains the outlier ring, keeping only the frames that
// actually belong to the newly promoted cluster. The ring also holds
// unrelated stragglers (other domains' out-of-band tails); training a
// specialized model on those would contaminate it, so seeds are filtered
// by cluster membership. Caller holds o.mu.
func (o *Odin) takeOutliers(c *cluster.Cluster) []*synth.Frame {
	var seeds []*synth.Frame
	for _, b := range o.outlierRing {
		if c.Contains(b.latent) || c.Distance(b.latent) <= c.Band().Hi {
			seeds = append(seeds, b.frame)
		}
	}
	o.outlierRing = nil
	return seeds
}
