package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/core"
	"odin/internal/obs"
	"odin/internal/registry"
)

// ErrTrainerClosed marks training jobs dropped because the trainer shut
// down before they ran; their recoveries roll back to the prior model.
var ErrTrainerClosed = errors.New("dispatch: trainer closed")

// ErrBuildPanicked marks a model build that panicked. The trainer recovers
// the panic into an error matching it (and naming the panic value), and the
// job fails like any other build: it rolls back, and its registry claim is
// aborted.
var ErrBuildPanicked = errors.New("dispatch: model build panicked")

// buildPanic is the error a panicking build returns.
type buildPanic struct{ value any }

func (e *buildPanic) Error() string { return fmt.Sprintf("%v: %v", ErrBuildPanicked, e.value) }

func (e *buildPanic) Unwrap() error { return ErrBuildPanicked }

// guardBuild runs build, turning a panic inside it into a *buildPanic.
func guardBuild(build func() (*core.Model, error)) (m *core.Model, err error) {
	defer func() {
		if v := recover(); v != nil {
			m, err = nil, &buildPanic{v}
		}
	}()
	return build()
}

// TrainerStats is trainer telemetry.
type TrainerStats struct {
	// Trained counts jobs whose model was built and swapped in. It always
	// equals Scratch + Warm + Adopted + Coalesced.
	Trained int
	// Failed counts jobs whose build errored or panicked, or whose swap was
	// rejected (cluster evicted mid-training, superseded model) — the
	// pipeline kept the prior model.
	Failed int
	// Dropped counts jobs discarded by Close before they ran.
	Dropped int

	// Scratch counts installed models trained from scratch initialisation
	// (registry miss, no registry, or fallback after an aborted coalesce).
	Scratch int
	// Warm counts installed models trained warm-started from a
	// regime-adjacent registry model.
	Warm int
	// Adopted counts installed models taken directly from the registry —
	// zero training.
	Adopted int
	// Coalesced counts installed models received from another pipeline's
	// concurrent build of the same regime — this pipeline trained nothing.
	Coalesced int
}

// queuedJob pairs a training job with its registry resolution, taken at
// enqueue time. Resolving at enqueue — not when the job reaches the front
// of the queue — is what makes fleet recovery deterministic and
// deadlock-free: under deterministic driving the enqueue order is fixed, so
// the builder of every coalesced regime is fixed; and because claims are
// registered in enqueue order while queues drain FIFO, a coalesce wait
// cycle across trainers would need strictly decreasing enqueue times around
// the cycle, which is impossible (DESIGN.md §9).
type queuedJob struct {
	job core.TrainJob
	res registry.Resolution
}

// Trainer drains drift-recovery training jobs on a single background
// goroutine: each job's model is built from its frame snapshot outside the
// pipeline lock (core.ModelManager.BuildModel), then swapped in atomically
// via core.Odin.FinishJob. While a job trains, the pipeline keeps serving
// every stream with the previous-best model — training is entirely off the
// real-time path, which is what flattens the recovery-stall latency spike
// (see TestDispatchAsyncRecoveryConverges, and drift_4cam's lat_p95_ms in
// bench/).
//
// Jobs run in FIFO order, so a cluster's lite model always lands before
// its specialized upgrade; overlapping drift events on different streams
// simply queue. A failed build — one that errors or panics — rolls back:
// FinishJob drops the job and the prior model keeps serving.
//
// With a fleet registry attached (AttachRegistry), each job is resolved
// against the fleet's recovered models before building: adopt installs a
// cached model directly, warm-start seeds training from cached weights,
// coalesce waits for another pipeline's in-flight build of the same regime,
// and a miss claims the regime, builds from scratch and publishes the
// result for the rest of the fleet. Every path lands through the same
// FinishJob atomic swap, so rollback semantics (evicted cluster, superseded
// lite) are identical with and without the registry.
type Trainer struct {
	pipe      *core.Odin
	build     func(core.TrainJob) (*core.Model, error)
	buildFrom func(core.TrainJob, *core.Model) (*core.Model, error)

	mu      sync.Mutex
	queue   []queuedJob
	busy    bool
	closed  bool
	waiters []chan struct{}
	stats   TrainerStats

	reg    *registry.Registry
	source string

	wake    chan struct{}
	done    chan struct{}
	closing chan struct{}

	// obsv is the optional observability hook: recovery-path lifecycle
	// events and build-duration histograms. Strictly observational.
	obsv atomic.Pointer[obs.Observer]
}

// NewTrainer starts a trainer over the pipeline and installs itself as the
// pipeline's train sink. Close it to stop the background goroutine.
func NewTrainer(pipe *core.Odin) *Trainer {
	t := &Trainer{
		pipe: pipe,
		build: func(job core.TrainJob) (*core.Model, error) {
			return pipe.Manager.BuildModel(job), nil
		},
		buildFrom: func(job core.TrainJob, from *core.Model) (*core.Model, error) {
			return pipe.Manager.BuildModelFrom(job, from), nil
		},
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	pipe.SetTrainSink(t.Enqueue)
	go t.loop()
	return t
}

// AttachRegistry connects the trainer to a fleet model registry: every
// subsequent job carrying a regime signature is resolved against it. source
// names this pipeline in registry provenance. Call before serving frames.
func (t *Trainer) AttachRegistry(reg *registry.Registry, source string) {
	t.mu.Lock()
	t.reg = reg
	t.source = source
	t.mu.Unlock()
}

// SetBuild replaces the scratch model-build function (tests inject failures
// with it). Call before any job is scheduled.
func (t *Trainer) SetBuild(fn func(core.TrainJob) (*core.Model, error)) {
	t.mu.Lock()
	t.build = fn
	t.mu.Unlock()
}

// SetBuildFrom replaces the warm-start build function (tests). Call before
// any job is scheduled.
func (t *Trainer) SetBuildFrom(fn func(core.TrainJob, *core.Model) (*core.Model, error)) {
	t.mu.Lock()
	t.buildFrom = fn
	t.mu.Unlock()
}

// SetObserver installs (or, with nil, removes) the observability hook.
func (t *Trainer) SetObserver(ob *obs.Observer) {
	t.obsv.Store(ob)
}

// observer returns the current hook (nil when disabled) plus the registry
// source label naming this pipeline in events.
func (t *Trainer) observer() (*obs.Observer, string) {
	ob := t.obsv.Load()
	if ob == nil {
		return nil, ""
	}
	t.mu.Lock()
	src := t.source
	t.mu.Unlock()
	return ob, src
}

// Stats returns a snapshot of the trainer telemetry.
func (t *Trainer) Stats() TrainerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Enqueue appends jobs to the training queue without blocking, resolving
// each against the fleet registry (when attached) at enqueue time. Jobs
// enqueued after Close are dropped immediately (their recoveries roll
// back), never silently leaked.
func (t *Trainer) Enqueue(jobs []core.TrainJob) {
	if len(jobs) == 0 {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.stats.Dropped += len(jobs)
		t.mu.Unlock()
		ob, src := t.observer()
		for _, job := range jobs {
			ob.Event(obs.EvRecoveryDropped, src, job.ClusterID, -1, "trainer closed")
			t.pipe.FinishJob(job, nil, 0, ErrTrainerClosed)
		}
		return
	}
	for _, job := range jobs {
		q := queuedJob{job: job}
		if t.reg != nil && job.Sig != nil {
			q.res = t.reg.Resolve(job.Sig, job.Kind, t.source)
		}
		t.queue = append(t.queue, q)
	}
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// loop is the trainer goroutine: pop, build (lock-free), swap.
func (t *Trainer) loop() {
	defer close(t.done)
	for {
		t.mu.Lock()
		if len(t.queue) == 0 {
			t.busy = false
			t.notifyIdleLocked()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			<-t.wake
			continue
		}
		q := t.queue[0]
		t.queue = t.queue[1:]
		t.busy = true
		t.mu.Unlock()

		t.runJob(q)
	}
}

// runJob executes one dequeued job down the path its registry resolution
// chose. Every branch terminates in exactly one FinishJob call, so the
// pipeline's outstanding-recovery accounting stays balanced.
func (t *Trainer) runJob(q queuedJob) {
	job := q.job
	ob, src := t.observer()
	switch q.res.Outcome {
	case registry.OutcomeAdopt:
		ob.Event(obs.EvRecoveryAdopted, src, job.ClusterID, -1, "fleet model adopted")
		t.finish(job, adoptModel(q.res.Model, job), 0, nil, &t.stats.Adopted)

	case registry.OutcomeCoalesce:
		m, _, _, err := q.res.Ticket.Wait(t.closing)
		switch {
		case errors.Is(err, registry.ErrCanceled):
			// Trainer is closing: drop the job like Close drops queued ones.
			ob.Event(obs.EvRecoveryDropped, src, job.ClusterID, -1, "coalesce canceled on close")
			t.pipe.FinishJob(job, nil, 0, ErrTrainerClosed)
			t.mu.Lock()
			t.stats.Dropped++
			t.mu.Unlock()
		case err != nil:
			// Builder aborted; fall back to our own scratch build.
			t.runScratch(job, nil)
		default:
			ob.Event(obs.EvRecoveryCoalesced, src, job.ClusterID, -1, "joined in-flight fleet build")
			t.finish(job, adoptModel(m, job), 0, nil, &t.stats.Coalesced)
		}

	case registry.OutcomeWarm:
		start := time.Now()
		m, err := guardBuild(func() (*core.Model, error) { return t.buildFrom(job, q.res.Model) })
		dur := time.Since(start)
		ob.Event(obs.EvRecoveryWarm, src, job.ClusterID, -1, "warm-started from fleet model")
		ob.BuildSeconds("warm", dur)
		t.finish(job, m, dur, err, &t.stats.Warm)

	case registry.OutcomeMiss:
		t.runScratch(job, q.res.Claim)

	default: // OutcomeNone: no registry or unsigned job
		t.runScratch(job, nil)
	}
}

// runScratch builds from scratch and, when the job holds a registry claim,
// publishes the result for the fleet (or aborts the claim on failure, so
// coalesced waiters fall back instead of hanging). The model is published
// even if this pipeline's install is rejected (e.g. its cluster was evicted
// mid-build): the weights are still a valid recovery for the regime.
func (t *Trainer) runScratch(job core.TrainJob, claim *registry.Claim) {
	start := time.Now()
	m, err := guardBuild(func() (*core.Model, error) { return t.build(job) })
	dur := time.Since(start)
	if claim != nil {
		if err != nil || m == nil {
			claim.Abort()
		} else {
			defer func() { claim.Publish(m, t.pipe.ModelGen()) }()
		}
	}
	ob, src := t.observer()
	ob.Event(obs.EvRecoveryScratch, src, job.ClusterID, -1, "")
	ob.BuildSeconds("scratch", dur)
	t.finish(job, m, dur, err, &t.stats.Scratch)
}

// finish swaps the model in via FinishJob and books the outcome: Trained
// plus the given breakdown counter on install, Failed on rollback.
func (t *Trainer) finish(job core.TrainJob, m *core.Model, dur time.Duration, err error, kind *int) {
	installed := t.pipe.FinishJob(job, m, dur, err)
	t.mu.Lock()
	if installed {
		t.stats.Trained++
		*kind++
	} else {
		t.stats.Failed++
	}
	t.mu.Unlock()
}

// adoptModel clones a registry model for installation into this pipeline:
// same immutable detector (GridDetector inference is stateless, so sharing
// the pointer across pipelines is safe), fresh cluster identity and
// creation frame. TrainedOn carries over — it describes the weights.
func adoptModel(src *core.Model, job core.TrainJob) *core.Model {
	if src == nil {
		return nil
	}
	m := *src
	m.ClusterID = job.ClusterID
	m.CreatedAt = job.AtFrame
	return &m
}

// notifyIdleLocked wakes Wait callers when the trainer drains.
func (t *Trainer) notifyIdleLocked() {
	for _, ch := range t.waiters {
		close(ch)
	}
	t.waiters = nil
}

// Wait blocks until every scheduled recovery has landed or rolled back —
// the trainer queue is empty, no job is mid-build, and the pipeline
// reports no outstanding jobs — or ctx is done.
func (t *Trainer) Wait(ctx context.Context) error {
	for {
		t.mu.Lock()
		idle := len(t.queue) == 0 && !t.busy
		var ch chan struct{}
		if !idle {
			ch = make(chan struct{})
			t.waiters = append(t.waiters, ch)
		}
		t.mu.Unlock()
		if idle {
			if t.pipe.PendingRecoveries() == 0 {
				return nil
			}
			// A job is scheduled but not yet enqueued (the scheduling
			// goroutine is between releasing the pipeline lock and calling
			// the sink) — yield briefly and re-check.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(200 * time.Microsecond):
			}
			continue
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops the trainer: queued jobs are dropped (their recoveries roll
// back to the prior model, their registry claims abort so coalesced waiters
// on other trainers fall back) and the call blocks until the background
// goroutine — including any job mid-build or mid-coalesce-wait — has
// exited. Idempotent.
func (t *Trainer) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return
	}
	t.closed = true
	dropped := t.queue
	t.queue = nil
	t.stats.Dropped += len(dropped)
	t.mu.Unlock()
	close(t.closing) // unblocks a coalesce wait in flight
	ob, src := t.observer()
	for _, q := range dropped {
		if q.res.Claim != nil {
			q.res.Claim.Abort()
		}
		ob.Event(obs.EvRecoveryDropped, src, q.job.ClusterID, -1, "trainer closed")
		t.pipe.FinishJob(q.job, nil, 0, ErrTrainerClosed)
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
	<-t.done
}
