package odin

import (
	"errors"
	"io"

	"odin/internal/obs"
)

// This file is the public face of the unified observability layer
// (WithObservability): Prometheus-text metrics via WriteMetrics, the
// structured lifecycle-event ring via RecentEvents, and the re-exported
// event vocabulary. The instrumentation itself lives in internal/obs and
// is threaded through the core pipeline, the fleet dispatcher, the async
// trainer and the QoS admission path; see DESIGN.md §12 for the overhead
// budget and the determinism contract (results are bit-identical with
// observability on or off).

// ErrObservabilityDisabled is returned by WriteMetrics on a server built
// without WithObservability.
var ErrObservabilityDisabled = errors.New("odin: observability disabled (WithObservability unset)")

// Event is one structured lifecycle event: drift detected, a recovery
// milestone, a fidelity transition, or a checkpoint save/restore. Seq is a
// monotone per-server sequence number; Cluster and Gen are -1 when not
// applicable.
type Event = obs.Event

// Lifecycle event kinds, as they appear in Event.Kind and in the
// odin_events_total{kind=...} metric.
const (
	EvDrift             = obs.EvDrift
	EvRecoveryEnqueued  = obs.EvRecoveryEnqueued
	EvRecoveryScratch   = obs.EvRecoveryScratch
	EvRecoveryWarm      = obs.EvRecoveryWarm
	EvRecoveryAdopted   = obs.EvRecoveryAdopted
	EvRecoveryCoalesced = obs.EvRecoveryCoalesced
	EvRecoverySwapped   = obs.EvRecoverySwapped
	EvRecoveryRollback  = obs.EvRecoveryRollback
	EvRecoveryFailed    = obs.EvRecoveryFailed
	EvRecoveryDropped   = obs.EvRecoveryDropped
	EvFidelityDegrade   = obs.EvFidelityDegrade
	EvFidelityRestore   = obs.EvFidelityRestore
	EvCheckpointSave    = obs.EvCheckpointSave
	EvCheckpointRestore = obs.EvCheckpointRestore
)

// ObservabilityEnabled reports whether the server was built
// WithObservability.
func (s *Server) ObservabilityEnabled() bool { return s.obs != nil }

// WriteMetrics renders every registered metric in the Prometheus text
// exposition format — the payload odin-serve exposes at /metrics. Output
// is sorted (families and series), so successive scrapes differ only in
// values. Safe for concurrent use with serving; a scrape never blocks the
// frame hot path (its metrics are plain atomics). Returns
// ErrObservabilityDisabled on a server built without WithObservability.
func (s *Server) WriteMetrics(w io.Writer) error {
	if s.obs == nil {
		return ErrObservabilityDisabled
	}
	return s.obs.Registry().WritePrometheus(w)
}

// RecentEvents returns up to n recent lifecycle events, oldest first
// (n ≤ 0 returns the whole retained ring; the ring keeps the latest 256).
// Nil on a server built without WithObservability.
func (s *Server) RecentEvents(n int) []Event {
	if s.obs == nil {
		return nil
	}
	return s.obs.Events().Recent(n)
}

// registerServerMetrics exports the counters the serving stack already
// maintains under its own locks (the pipeline's Stats snapshot,
// trainer/registry/dispatch telemetry) as scrape-time callbacks, one table
// row per series — no double bookkeeping on the hot path. A scrape reads
// each subsystem once: the registry's OnScrape hook fills one snapshot at
// the top of the scrape, and every row reads from it, so the pipeline lock
// is taken once a scrape and its series agree with each other. Every family
// is registered up front, reading zero while its subsystem is absent, so
// the exposition's family set is stable from the first scrape (and
// golden-testable).
//
// Lock order: a scrape holds the metric registry lock while the hook
// takes s.mu (and the pipeline lock) — safe because no code path acquires
// them in the opposite order (hot-path metric updates are lock-free
// atomics).
func (s *Server) registerServerMetrics() {
	reg := s.obs.Registry()
	var snap struct { // filled once a scrape, guarded by the registry lock
		pipe     Stats
		trainer  TrainerStats
		registry RegistryStats
		dispatch DispatchStats
	}
	reg.OnScrape(func() {
		snap.pipe, snap.trainer, snap.registry, snap.dispatch = s.Stats(), s.TrainerStats(), s.RegistryStats(), s.DispatchStats()
	})
	counter, gauge := reg.CounterFunc, reg.GaugeFunc
	label := func(key, value string) []obs.Label { return []obs.Label{{Key: key, Value: value}} }
	const (
		fidelityHelp = "Frames served, by the fidelity that served them."
		trainerHelp  = "Async recovery-trainer jobs by outcome."
		lookupHelp   = "Fleet registry resolutions by outcome."
	)
	for _, m := range []struct {
		register   func(name, help string, fn func() float64, labels ...obs.Label)
		name, help string
		labels     []obs.Label
		get        func() float64
	}{
		// Pipeline ledger and model-set gauges.
		{counter, "odin_frames_total", "Frames processed by the drift-aware pipeline.", nil,
			func() float64 { return float64(snap.pipe.Frames) }},
		{counter, "odin_outliers_total", "Frames flagged as outliers by the drift detector.", nil,
			func() float64 { return float64(snap.pipe.Outliers) }},
		{counter, "odin_drift_events_total", "Drift events raised (outlier clusters crossing the drift threshold).", nil,
			func() float64 { return float64(snap.pipe.DriftEvents) }},
		{counter, "odin_dropped_frames_total", "Frames shed by admission-queue drop policies, as ledgered by the pipeline.", nil,
			func() float64 { return float64(snap.pipe.Dropped) }},
		{counter, "odin_sim_gpu_seconds_total", "Simulated GPU seconds consumed by detection.", nil,
			func() float64 { return snap.pipe.SimTime }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "full"),
			func() float64 { return float64(snap.pipe.FullFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "lite"),
			func() float64 { return float64(snap.pipe.LiteFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "count"),
			func() float64 { return float64(snap.pipe.CountFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "skip"),
			func() float64 { return float64(snap.pipe.SkipFrames) }},
		{gauge, "odin_model_generation", "Model-set generation (increments on every trained-model swap).", nil,
			func() float64 { return float64(snap.pipe.ModelGen) }},
		{gauge, "odin_resident_models", "Resident specialized models.", nil,
			func() float64 { return float64(snap.pipe.NumModels) }},
		{gauge, "odin_clusters", "Discovered concept clusters.", nil,
			func() float64 { return float64(snap.pipe.NumClusters) }},
		{gauge, "odin_pending_recoveries", "Drift recoveries scheduled but not yet swapped in (async training).", nil,
			func() float64 { return float64(snap.pipe.PendingRecoveries) }},
		{gauge, "odin_model_memory_mb", "Simulated resident model memory in MB.", nil,
			func() float64 { return snap.pipe.MemoryMB }},

		// Async trainer outcomes.
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "scratch"),
			func() float64 { return float64(snap.trainer.Scratch) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "warm"),
			func() float64 { return float64(snap.trainer.Warm) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "adopted"),
			func() float64 { return float64(snap.trainer.Adopted) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "coalesced"),
			func() float64 { return float64(snap.trainer.Coalesced) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "failed"),
			func() float64 { return float64(snap.trainer.Failed) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "dropped"),
			func() float64 { return float64(snap.trainer.Dropped) }},

		// Fleet model registry.
		{gauge, "odin_registry_models", "Models resident in the fleet registry.", nil,
			func() float64 { return float64(snap.registry.Size) }},
		{gauge, "odin_registry_capacity", "Fleet registry capacity bound.", nil,
			func() float64 { return float64(snap.registry.Capacity) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "adopt"),
			func() float64 { return float64(snap.registry.AdoptHits) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "warm"),
			func() float64 { return float64(snap.registry.WarmHits) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "coalesce"),
			func() float64 { return float64(snap.registry.Coalesced) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "miss"),
			func() float64 { return float64(snap.registry.Misses) }},
		{counter, "odin_registry_published_total", "Models published to the fleet registry.", nil,
			func() float64 { return float64(snap.registry.Published) }},
		{counter, "odin_registry_evicted_total", "Fleet registry entries evicted by the LRU capacity bound.", nil,
			func() float64 { return float64(snap.registry.Evicted) }},

		// Fleet dispatcher.
		{counter, "odin_dispatch_batches_total", "Merged ProcessBatch calls issued by the fleet dispatcher.", nil,
			func() float64 { return float64(snap.dispatch.Batches) }},
		{counter, "odin_dispatch_windows_total", "Session windows flushed through the fleet dispatcher.", nil,
			func() float64 { return float64(snap.dispatch.Windows) }},
		{counter, "odin_dispatch_frames_total", "Frames processed through the fleet dispatcher.", nil,
			func() float64 { return float64(snap.dispatch.Frames) }},
		{counter, "odin_dispatch_partial_flushes_total", "Dispatcher flushes cut by the weighted round-robin frame budget.", nil,
			func() float64 { return float64(snap.dispatch.PartialFlushes) }},
		{gauge, "odin_dispatch_max_merge", "Largest number of windows merged into one dispatcher batch.", nil,
			func() float64 { return float64(snap.dispatch.MaxMerge) }},
		{gauge, "odin_dispatch_queued_windows", "Windows waiting in the dispatcher assembler.", nil,
			func() float64 { return float64(snap.dispatch.QueuedWindows) }},
		{gauge, "odin_dispatch_queued_frames", "Frames waiting in the dispatcher assembler.", nil,
			func() float64 { return float64(snap.dispatch.QueuedFrames) }},
	} {
		m.register(m.name, m.help, m.get, m.labels...)
	}
}
