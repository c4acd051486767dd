package odin

import (
	"fmt"
	"runtime"

	"odin/internal/qos"
	"odin/internal/query"
)

// config is the resolved Server configuration. Options validate eagerly so
// New can reject a bad configuration before any training happens.
type config struct {
	seed            uint64
	bootstrapFrames int
	bootstrapEpochs int
	baselineEpochs  int
	maxModels       int
	policy          Policy
	workers         int
	minScore        float64

	dispatcher bool
	trainAsync bool
	labelDelay int // 0: keep the specializer default
	fleet      *FleetRecovery

	maxQueue      int // 0: no admission queue (Run reads its input channel directly)
	dropPolicy    qos.DropPolicy
	dropPolicySet bool
	adaptive      *AdaptiveFidelity

	obs bool // unified observability layer (WithObservability)
}

func defaultConfig() config {
	return config{
		seed:            1,
		bootstrapFrames: 600,
		bootstrapEpochs: 8,
		baselineEpochs:  40,
		maxModels:       0,
		policy:          PolicyDeltaBM,
		workers:         runtime.GOMAXPROCS(0),
		minScore:        query.DefaultMinScore,
	}
}

// Option configures a Server at construction time.
type Option func(*config) error

// resolveConfig applies opts to the defaults, then the cross-option QoS
// rules, in an order that does not depend on how the caller listed them:
// adaptive fidelity needs a queue to observe, so it implies a bound of 64
// unless one was set; only then is a drop policy checked for a queue to
// act on. New and Restore both resolve through here.
func resolveConfig(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	if cfg.adaptive != nil && cfg.maxQueue == 0 {
		cfg.maxQueue = 64
	}
	if cfg.dropPolicySet && cfg.maxQueue == 0 {
		return cfg, fmt.Errorf("odin: WithDropPolicy requires WithMaxQueue or WithAdaptiveFidelity")
	}
	return cfg, nil
}

// WithSeed sets the seed driving all randomness; equal seeds give
// identical servers. The seed must be non-zero.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		if seed == 0 {
			return fmt.Errorf("odin: seed must be non-zero")
		}
		c.seed = seed
		return nil
	}
}

// WithBootstrapFrames sets the number of held-out frames used to train the
// DA-GAN projection and the baseline detector (default 600).
func WithBootstrapFrames(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("odin: bootstrap frames must be positive, got %d", n)
		}
		c.bootstrapFrames = n
		return nil
	}
}

// WithBootstrapEpochs sets the DA-GAN epoch budget (default 8).
func WithBootstrapEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("odin: bootstrap epochs must be positive, got %d", n)
		}
		c.bootstrapEpochs = n
		return nil
	}
}

// WithBaselineEpochs sets the baseline detector epoch budget (default 40).
func WithBaselineEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("odin: baseline epochs must be positive, got %d", n)
		}
		c.baselineEpochs = n
		return nil
	}
}

// WithMaxModels caps resident specialized models; 0 (the default) means
// unlimited. When the cap is exceeded the smallest cluster is evicted
// (§6.5 "Model Count Threshold").
func WithMaxModels(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("odin: max models must be non-negative, got %d", n)
		}
		c.maxModels = n
		return nil
	}
}

// WithPolicy selects the SELECTOR policy (default PolicyDeltaBM).
func WithPolicy(p Policy) Option {
	return func(c *config) error {
		switch p {
		case PolicyDeltaBM, PolicyKNNU, PolicyKNNW, PolicyMostRecent:
		default:
			return fmt.Errorf("odin: invalid policy %d", int(p))
		}
		c.policy = p
		return nil
	}
}

// WithMinScore sets the server-wide detection-confidence floor query
// plans inherit (default 0.3). The floor is frozen into each plan at
// prepare time — concurrent queries never observe a mid-flight change —
// and a single query can override it with Query.WithMinScore.
func WithMinScore(s float64) Option {
	return func(c *config) error {
		if !(s >= 0 && s <= 1) { // written to also reject NaN
			return fmt.Errorf("odin: min score must be in [0,1], got %v", s)
		}
		c.minScore = s
		return nil
	}
}

// WithDispatcher routes every Stream.Run session through the server's
// fleet dispatcher: ready frame windows from all active sessions merge
// into shared ProcessBatch calls, amortising batched detection across
// cameras. Merged batches advance frames in session join order, so with
// inline training the dispatched fleet reproduces per-stream results
// bit for bit (see DESIGN.md §7). Merged batches run at the server-wide
// worker budget (WithWorkers); a StreamOptions.Workers override then
// applies only to synchronous Process calls. The assembler flushes once
// the pending windows hold 64 frames or every camera with input waiting
// has submitted a window; a camera with none waiting (on a buffered input
// channel) holds nobody, and no window waits longer than 2ms to be
// co-batched. Default off — each Run session batches only its own frames.
func WithDispatcher(on bool) Option {
	return func(c *config) error {
		c.dispatcher = on
		return nil
	}
}

// WithTrainAsync moves drift-triggered specializer training off the
// serving path onto a background trainer goroutine: drift events schedule
// training jobs, frames are served by the previous-best model in the
// interim (surfaced as StreamResult.RecoveryPending), and the trained
// model is swapped in atomically when ready — eliminating the per-fleet
// latency spike of inline training. Track swaps with Stats().ModelGen and
// Stats().PendingRecoveries, or block on WaitRecoveries. Default off:
// training runs inline, which keeps results deterministic.
func WithTrainAsync(on bool) Option {
	return func(c *config) error {
		c.trainAsync = on
		return nil
	}
}

// WithLabelDelay sets how many stream frames after a drift event oracle
// labels become available (§5.2): the distilled YOLO-Lite serves from the
// drift onward, and the oracle-trained specialized model replaces it once
// the delay elapses. Larger delays keep recoveries on the cheap lite
// models; a delay longer than the stream defers specialized training
// entirely. Default 600.
func WithLabelDelay(frames int) Option {
	return func(c *config) error {
		if frames <= 0 {
			return fmt.Errorf("odin: label delay must be positive, got %d", frames)
		}
		c.labelDelay = frames
		return nil
	}
}

// FleetRecovery configures cross-camera correlated recovery
// (WithFleetRecovery). The zero value is a working configuration: a
// private registry of 32 models, named "server" in provenance. A stored
// model is adopted outright at regime-signature distance 0.25 or less and
// warm-starts training at 0.6 or less (registry.AdoptDistance,
// registry.WarmDistance; DESIGN.md §9).
type FleetRecovery struct {
	// Registry is the fleet-shared model registry. Pass the same
	// NewModelRegistry value to every server in the fleet; nil gives this
	// server a private registry (still useful: recurring regimes on one
	// camera adopt their own earlier recoveries).
	Registry *ModelRegistry
	// Source names this server in registry provenance and stats (e.g. a
	// camera ID). Empty defaults to "server".
	Source string
}

// WithFleetRecovery enables the fleet model registry on this server's
// drift-recovery path. It implies WithTrainAsync(true): recoveries are
// resolved against the registry by the background trainer, so training (or
// adoption) never blocks serving. See DESIGN.md §9 for the adopt /
// warm-start / coalesce decision table and the determinism contract.
func WithFleetRecovery(fr FleetRecovery) Option {
	return func(c *config) error {
		c.fleet = &fr
		c.trainAsync = true
		return nil
	}
}

// WithWorkers sets the server-wide default fan-out for sharded stream
// processing and query execution; StreamOptions.Workers overrides it per
// stream. 0 (the default) resolves to GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("odin: workers must be non-negative, got %d", n)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		return nil
	}
}

// WithMaxQueue puts a bounded admission queue of n frames in front of each
// Run session: an intake admits at most n frames ahead of processing and
// applies the configured drop policy (WithDropPolicy, default DropBlock
// backpressure) when full. The queue is also what Stream.Offer admits into
// and what the adaptive fidelity controller observes. 0 (the default) means
// no queue: the session reads its input channel directly, so intake is
// back-pressured by that channel's capacity and nothing is ever shed.
func WithMaxQueue(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("odin: max queue must be non-negative, got %d", n)
		}
		c.maxQueue = n
		return nil
	}
}

// WithDropPolicy selects what a full admission queue does with new frames:
// DropBlock (the default) applies backpressure to the producer, DropNewest
// sheds the arriving frame, DropOldest sheds the stalest queued frame.
// Shed frames are never silently lost: each yields a StreamResult with
// Dropped set, in sequence order, and is counted in Stats().Dropped.
// Requires a queue: WithMaxQueue, or the one WithAdaptiveFidelity implies.
func WithDropPolicy(p DropPolicy) Option {
	return func(c *config) error {
		switch p {
		case DropBlock, DropNewest, DropOldest:
		default:
			return fmt.Errorf("odin: unknown drop policy %d", uint8(p))
		}
		c.dropPolicy = p
		c.dropPolicySet = true
		return nil
	}
}

// AdaptiveFidelity configures the load-adaptive degradation controller
// (WithAdaptiveFidelity). The zero value runs the live controller: an
// observation at or above 75% queue occupancy counts toward degrading one
// level, one at or below 25% toward restoring one, and the level steps
// after two consecutive such observations. The ladder runs from full
// fidelity (0) through lite model only (1) and count pushdown (2) to count
// on one frame in four with the rest skipped (3).
type AdaptiveFidelity struct {
	// Script replays a recorded degradation schedule instead of running
	// the live controller: entry w is the level applied to the logical
	// window of frames [w*MaxBatch, (w+1)*MaxBatch); sessions past the end
	// hold the final entry. Because the level depends only on a frame's
	// sequence number, a scripted session is bit-for-bit reproducible at
	// any worker count — the determinism contract for degraded modes
	// (DESIGN.md §11). Nil (the default) runs the live controller.
	Script []int
}

// WithObservability enables the unified observability layer: a metrics
// registry scraped via Server.WriteMetrics (Prometheus text format), a
// per-frame pipeline tracer recording per-stage latency (admission, queue
// wait, batch assembly, projection, advance, detect, emit), and a bounded
// ring of structured lifecycle events (drift detected, recovery
// enqueued/adopted/warm/coalesced/swapped, fidelity transitions,
// checkpoint save/restore) read via Server.RecentEvents.
//
// Instrumentation is strictly observational: results are bit-identical
// with observability on or off at every worker count, and the hot path
// adds no allocations (atomic counters and fixed-bucket histograms; see
// DESIGN.md §12 for the overhead budget). Default off — a server built
// without this option pays not even the clock reads.
func WithObservability(on bool) Option {
	return func(c *config) error {
		c.obs = on
		return nil
	}
}

// WithAdaptiveFidelity enables load-adaptive multi-fidelity degradation on
// every Run session: a per-stream hysteresis controller observes admission
// queue occupancy and walks the stream down a fidelity ladder (full →
// cheapest single model → count pushdown → count with subsampling) under
// sustained overload, restoring as load falls. Every result carries the
// fidelity that served it. Implies WithMaxQueue(64) unless a queue bound
// was set explicitly. At or under capacity the controller never leaves
// full fidelity and results are bit-identical to a non-adaptive server.
func WithAdaptiveFidelity(af AdaptiveFidelity) Option {
	return func(c *config) error {
		for i, lv := range af.Script {
			if lv < 0 || lv > qos.MaxLevel {
				return fmt.Errorf("odin: adaptive script[%d] level %d out of range [0,%d]", i, lv, qos.MaxLevel)
			}
		}
		cp := af
		cp.Script = append([]int(nil), af.Script...)
		c.adaptive = &cp
		return nil
	}
}
