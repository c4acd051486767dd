package odin

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/dispatch"
	"odin/internal/gan"
	"odin/internal/obs"
	"odin/internal/query"
	"odin/internal/registry"
	"odin/internal/synth"
)

// Sentinel errors of the service layer. They replace the former panic
// paths of the one-shot System facade.
var (
	// ErrNotBootstrapped is returned when a method that needs trained
	// models runs before Bootstrap.
	ErrNotBootstrapped = errors.New("odin: server not bootstrapped (call Bootstrap first)")
	// ErrAlreadyBootstrapped is returned by a second Bootstrap call.
	ErrAlreadyBootstrapped = errors.New("odin: server already bootstrapped")
	// ErrServerClosed is returned after Close.
	ErrServerClosed = errors.New("odin: server closed")
	// ErrStreamClosed is returned by operations on a closed Stream.
	ErrStreamClosed = errors.New("odin: stream closed")
	// ErrReservedModel is returned when registering a model under a
	// built-in binding name ("odin", "yolo").
	ErrReservedModel = errors.New("odin: model name reserved for a built-in binding")
	// ErrOverloaded is returned by Stream.Offer when the admission queue
	// is full: the frame was rejected, counted, and stays with the caller.
	ErrOverloaded = errors.New("odin: stream overloaded (admission queue full)")
	// ErrNoAdmission is returned by Stream.Offer when there is no
	// admission queue to offer into — the server was built without
	// WithMaxQueue, or the stream has no active Run session.
	ErrNoAdmission = errors.New("odin: no admission queue (WithMaxQueue unset or no active Run session)")
	// ErrFrameShape is returned by Stream.Process and by a built-in
	// model's PreparedQuery.Execute, and carried by StreamResult.Err, for a
	// frame the models cannot run: nil, without an image, or not of
	// Server.FrameShape() — a different C, H or W, or len(Pix) ≠ C·H·W.
	// The frame is not processed.
	ErrFrameShape = errors.New("odin: frame does not have the server's shape")
)

// Server is a running ODIN service instance. It owns the bootstrapped
// model substrate — the DA-GAN projector, the heavyweight baseline, the
// model manager and the cluster state — and vends per-camera Stream
// sessions via OpenStream. All methods are safe for concurrent use.
//
// Concurrency: the per-frame inference path (projection and detection) is
// lock-free and shared; the mutating drift path (cluster assignment,
// outlier buffering, specializer training) is serialized behind a single
// synchronization point inside the core pipeline. N streams therefore
// share one model set, and a drift event recovered on one stream
// immediately serves all of them. See DESIGN.md §5.
type Server struct {
	cfg   config
	scene synth.SceneConfig

	// obs is the unified observability layer (WithObservability); nil when
	// disabled. It is set once at construction and never mutated, so reads
	// need no lock. Every instrumented subsystem holds the same pointer.
	obs *obs.Observer

	genMu sync.Mutex
	gen   *synth.SceneGen

	mu       sync.Mutex
	pipeline *core.Odin
	engine   *query.Engine
	dagan    *gan.DAGAN
	baseline *detect.GridDetector
	batcher  *dispatch.Batcher  // fleet dispatcher (WithDispatcher); nil otherwise
	trainer  *dispatch.Trainer  // async recovery trainer (WithTrainAsync); nil otherwise
	registry *registry.Registry // fleet model registry (WithFleetRecovery); nil otherwise
	booting  bool               // a Bootstrap is training outside the lock
	booted   bool
	closed   bool
}

// New creates a Server from functional options. The server owns no trained
// models yet; call Bootstrap before opening streams or running queries.
func New(opts ...Option) (*Server, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	return newServer(cfg, synth.NewSceneGen(cfg.seed, synth.DefaultSceneConfig())), nil
}

// newServer is the one Server constructor, New's and Restore's. It builds
// the query engine with its score floor and, with WithObservability, the
// observer with its metrics. The server holds no models until assemble
// installs them.
func newServer(cfg config, gen *synth.SceneGen) *Server {
	s := &Server{
		cfg:    cfg,
		scene:  synth.DefaultSceneConfig(),
		gen:    gen,
		engine: query.NewEngine(cfg.minScore),
	}
	if cfg.obs {
		s.obs = obs.New(0)
		s.registerServerMetrics()
	}
	return s
}

// GenerateFrames renders frames from a subset's domain distribution — the
// synthetic stand-in for reading dash-cam video (see DESIGN.md §1). n <= 0
// renders none. Safe for concurrent use; concurrent callers draw from one
// seeded sequence.
func (s *Server) GenerateFrames(sub Subset, n int) []*Frame {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	return s.gen.Dataset(sub, n)
}

// FrameShape returns the channels, height and width of the frames this
// server's models were built for — what GenerateFrames renders. The
// pipeline indexes pixels by this shape without checking it, so a front
// end that takes frames from outside the process compares against it
// before submitting them.
func (s *Server) FrameShape() (c, h, w int) {
	return 3, s.scene.H, s.scene.W
}

// checkFrame returns ErrFrameShape, wrapped with what is wrong, unless f is
// a frame of the server's shape.
func (s *Server) checkFrame(f *Frame) error {
	if f == nil || f.Image == nil {
		return fmt.Errorf("%w: nil frame or image", ErrFrameShape)
	}
	c, h, w := s.FrameShape()
	if im := f.Image; im.C != c || im.H != h || im.W != w || len(im.Pix) != c*h*w {
		return fmt.Errorf("%w: %dx%dx%d with %d pixels, the server's frames are %dx%dx%d",
			ErrFrameShape, im.C, im.H, im.W, len(im.Pix), c, h, w)
	}
	return nil
}

// Bootstrap trains the DA-GAN projection and the heavyweight baseline
// detector side by side, then assembles the drift pipeline. When boot is
// nil, bootstrap frames are generated from the full domain distribution
// (the paper trains on a held-out unlabeled split). The context is
// consulted before and after training; a second call — including one that overlaps a Bootstrap
// still training — returns ErrAlreadyBootstrapped. Training runs outside
// the server lock, so other methods stay responsive (and report
// ErrNotBootstrapped) while it is in progress.
func (s *Server) Bootstrap(ctx context.Context, boot []*Frame) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return ErrServerClosed
	case s.booted, s.booting:
		s.mu.Unlock()
		return ErrAlreadyBootstrapped
	}
	s.booting = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.booting = false
		s.mu.Unlock()
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	if boot == nil {
		s.genMu.Lock()
		boot = s.gen.Dataset(synth.FullData, s.cfg.bootstrapFrames)
		s.genMu.Unlock()
	}

	baseCfg := detect.YOLOConfig(s.scene.H, s.scene.W)
	baseCfg.Seed = s.cfg.seed + 9
	baseline := detect.NewGridDetector(baseCfg)
	// The two trainings share only the boot frames, which both read, and
	// each draws from its own seeded RNG: side by side, each ends with the
	// weights it would have alone. A panic in either reaches the caller.
	fitted := make(chan any, 1)
	go func() {
		defer func() { fitted <- recover() }()
		baseline.Fit(detect.SamplesFromFrames(boot), s.cfg.baselineEpochs, 16)
	}()
	dagan := core.TrainDAGAN(boot, core.DAGANConfig(s.scene, s.cfg.seed+7), s.cfg.bootstrapEpochs, 32)
	if p := <-fitted; p != nil {
		panic(p)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.assemble(dagan, baseline, nil, nil)
}

// assemble builds the drift pipeline, the fleet subsystem (trainer,
// registry, batcher) and the built-in query bindings around a trained
// substrate, and installs them: from then on the server is bootstrapped.
// When restored is non-nil the pipeline continues from that checkpoint
// snapshot instead of starting empty; regState, when non-nil, seeds a
// private fleet registry with checkpointed entries (ignored when the fleet
// shares a registry — that one is owned by the fleet, not this server's
// checkpoint). If Close landed first — while Bootstrap trained — it closes
// the trainer it built and returns ErrServerClosed.
func (s *Server) assemble(dagan *gan.DAGAN, baseline *detect.GridDetector, restored *core.PipelineState, regState *registry.State) error {
	cfg := core.DefaultConfig(s.scene)
	cfg.Cluster.MaxClusters = s.cfg.maxModels
	cfg.AsyncTrain = s.cfg.trainAsync
	if s.cfg.labelDelay > 0 {
		cfg.Spec.LabelDelay = s.cfg.labelDelay
	}
	cfg.Selector.Policy = s.cfg.policy
	cfg.Obs = s.obs

	var pipeline *core.Odin
	if restored != nil {
		var err error
		pipeline, err = core.FromSnapshot(cfg, dagan, baseline, *restored)
		if err != nil {
			return err
		}
	} else {
		pipeline = core.New(cfg, dagan, baseline)
	}

	// The fleet subsystem: the trainer takes drift recoveries off the
	// serving path (resolving them against the fleet registry, when there
	// is one), the batcher merges Run-session windows across streams.
	var trainer *dispatch.Trainer
	var reg *registry.Registry
	if s.cfg.trainAsync {
		source := ""
		if fr := s.cfg.fleet; fr != nil {
			switch {
			case fr.Registry != nil:
				reg = fr.Registry.reg
			case regState != nil:
				var err error
				if reg, err = registry.FromState(*regState); err != nil {
					return err
				}
			default:
				reg = registry.New(registry.DefaultCapacity)
			}
			source = fr.Source
			if source == "" {
				source = "server"
			}
		}
		trainer = dispatch.NewTrainer(pipeline, reg, source)
	}
	var batcher *dispatch.Batcher
	if s.cfg.dispatcher {
		batcher = dispatch.NewBatcher(pipeline, dispatch.Config{Workers: s.cfg.workers, Obs: s.obs})
	}

	// Built-in query models: the drift-aware pipeline (sharded + batched)
	// and the static baseline (batched forward pass).
	workers := s.cfg.workers
	s.engine.RegisterBatchModel("odin", func(frames []*synth.Frame) [][]detect.Detection {
		results := pipeline.ProcessBatch(frames, workers)
		dets := make([][]detect.Detection, len(results))
		for i, r := range results {
			dets[i] = r.Detections
		}
		return dets
	})
	s.engine.RegisterBatchModel("yolo", func(frames []*synth.Frame) [][]detect.Detection {
		imgs := make([]*synth.Image, len(frames))
		for i, f := range frames {
			imgs[i] = f.Image
		}
		return baseline.DetectBatch(imgs)
	})
	// COUNT projection pushdown: COUNT-only plans count inside the execute
	// stage instead of materialising detection boxes.
	s.engine.RegisterCountModel("odin", func(frames []*synth.Frame, class int, minScore float64) []int {
		return pipeline.CountBatch(frames, workers, class, minScore)
	})
	s.engine.RegisterCountModel("yolo", func(frames []*synth.Frame, class int, minScore float64) []int {
		imgs := make([]*synth.Image, len(frames))
		for i, f := range frames {
			imgs[i] = f.Image
		}
		return baseline.CountBatch(imgs, class, minScore)
	})

	s.mu.Lock()
	if s.closed { // Close landed while Bootstrap trained
		s.mu.Unlock()
		if trainer != nil {
			trainer.Close()
		}
		return ErrServerClosed
	}
	s.pipeline = pipeline
	s.dagan = dagan
	s.baseline = baseline
	s.batcher = batcher
	s.trainer = trainer
	s.registry = reg
	s.booted = true
	s.mu.Unlock()
	return nil
}

// alive returns ErrServerClosed after Close, nil otherwise.
func (s *Server) alive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	return nil
}

// pipe returns the live pipeline or the reason there is none.
func (s *Server) pipe() (*core.Odin, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrServerClosed
	case !s.booted:
		return nil, ErrNotBootstrapped
	}
	return s.pipeline, nil
}

// OpenStream opens a processing session for one camera stream. Streams
// share the server's model set; Workers bounds the session's sharded
// fan-out. Returns ErrNotBootstrapped before Bootstrap.
func (s *Server) OpenStream(ctx context.Context, o StreamOptions) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := s.pipe(); err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = s.cfg.workers
	}
	maxBatch := o.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4 * workers
		if maxBatch < 8 {
			maxBatch = 8
		}
	}
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = maxBatch
	}
	weight := o.Weight
	if weight < 1 {
		weight = 1
	}
	return &Stream{
		srv:      s,
		name:     o.Name,
		workers:  workers,
		maxBatch: maxBatch,
		buffer:   buffer,
		weight:   weight,
		maxQueue: s.cfg.maxQueue,
		dropPol:  s.cfg.dropPolicy,
		adaptive: s.cfg.adaptive,
		done:     make(chan struct{}),
	}, nil
}

// Query parses, compiles and executes an aggregation query over frames —
// a thin parse-then-compile wrapper over PrepareSQL + Execute for one-shot
// calls; issue a query repeatedly via Prepare instead, which plans once.
// The built-in model names are "odin" (drift-aware pipeline, sharded
// across the server's worker budget) and "yolo" (static baseline,
// batched); more can be added with RegisterModel / RegisterFilter.
// Queries referencing only custom models run before Bootstrap; the
// built-in bindings require it. The context cancels execution between
// model invocations.
func (s *Server) Query(ctx context.Context, sql string, frames []*Frame) (*QueryResult, error) {
	pq, err := s.PrepareSQL(sql)
	if err != nil {
		return nil, err
	}
	return pq.Execute(ctx, frames)
}

// RegisterModel binds a custom per-frame detection model for USING MODEL
// clauses. May be called before Bootstrap; queries referencing only
// registered models are runnable immediately. The built-in names "odin"
// and "yolo" are reserved (ErrReservedModel) — continuous queries decide
// whether to reuse the stream's pipeline results by that binding.
func (s *Server) RegisterModel(name string, fn func(*Frame) []Detection) error {
	if builtinModel(name) {
		return fmt.Errorf("%w: %q", ErrReservedModel, name)
	}
	s.engine.RegisterModel(name, fn)
	return nil
}

// RegisterBatchModel binds a custom batch detection model, taking
// precedence over a per-frame binding of the same name. May be called
// before Bootstrap. Built-in names are reserved (ErrReservedModel).
func (s *Server) RegisterBatchModel(name string, fn func([]*Frame) [][]Detection) error {
	if builtinModel(name) {
		return fmt.Errorf("%w: %q", ErrReservedModel, name)
	}
	s.engine.RegisterBatchModel(name, fn)
	return nil
}

// RegisterFilter binds a custom frame pre-screen for USING FILTER clauses.
// May be called before Bootstrap.
func (s *Server) RegisterFilter(name string, fn func(*Frame) bool) {
	s.engine.RegisterFilter(name, fn)
}

// Stats returns one snapshot of the pipeline: the ledger and the model-set
// gauges (NumClusters, NumModels, ModelGen — which every StreamResult also
// carries — PendingRecoveries, always 0 without WithTrainAsync, and
// MemoryMB). It is zero before Bootstrap; after Close it keeps returning
// the final state.
//
// Snapshot semantics: the snapshot is taken under the pipeline's single
// serialization lock, so it is internally consistent — the fidelity
// breakdown (FullFrames + LiteFrames + CountFrames + SkipFrames) always
// sums to Frames, and every field belongs to the same instant. Every
// ledger field is monotonically non-decreasing over the life of a
// bootstrapped server. While Run sessions are active a snapshot can lag
// the stream-side view (frames advance the pipeline before their results
// are emitted, and drop markers are ledgered as their batch drains); at
// quiescence — all Run sessions ended, WaitRecoveries drained — the
// server-level counters agree exactly with the per-stream ledgers: in
// particular Stats().Dropped equals the sum of Stream.QoS().Dropped over
// the streams that ever ran.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	p := s.pipeline
	s.mu.Unlock()
	if p == nil {
		return Stats{}
	}
	return pipelineStats(p)
}

// pipelineStats reads a pipeline's telemetry under its lock. A variable so
// that a test can count the acquisitions a caller makes.
var pipelineStats = (*core.Odin).Stats

// NumClusters is Stats().NumClusters, kept as a method because the
// benchmark harness (bench/) calls it.
func (s *Server) NumClusters() int { return s.Stats().NumClusters }

// NumModels is Stats().NumModels, kept as a method because the benchmark
// harness (bench/) calls it.
func (s *Server) NumModels() int { return s.Stats().NumModels }

// WaitRecoveries blocks until every scheduled drift recovery has been
// swapped in or rolled back, or ctx is done. With inline training (or
// before Bootstrap) it returns nil immediately.
func (s *Server) WaitRecoveries(ctx context.Context) error {
	s.mu.Lock()
	tr := s.trainer
	s.mu.Unlock()
	if tr == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return tr.Wait(ctx)
}

// dispatcher returns the fleet batcher Run sessions route through (nil
// when WithDispatcher is off or Bootstrap has not run).
func (s *Server) dispatcher() *dispatch.Batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batcher
}

// Close marks the server closed. Subsequent Bootstrap, OpenStream, Query
// and Stream operations return ErrServerClosed; in-flight frames finish.
// The async trainer (if any) is stopped deterministically: queued
// recoveries are dropped and roll back to the prior model, a job
// mid-training finishes and lands, and Close blocks until that drain is
// complete. Close → Checkpoint is therefore a valid shutdown sequence:
// Checkpoint still works after Close (as do the telemetry reads: Stats,
// TrainerStats, RegistryStats, DispatchStats), and a checkpoint taken
// after Close captures the final quiescent model set (no in-flight trainer
// jobs, Stats().PendingRecoveries == 0). See DESIGN.md §10.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	tr := s.trainer
	s.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
	return nil
}
