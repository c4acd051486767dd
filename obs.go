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
// row per series — no double bookkeeping on the hot path. Every family is
// registered up front, reading zero while its subsystem is absent, so the
// exposition's family set is stable from the first scrape (and
// golden-testable).
//
// Lock order: a scrape holds the metric registry lock while the callbacks
// take s.mu (and the pipeline lock) — safe because no code path acquires
// them in the opposite order (hot-path metric updates are lock-free
// atomics).
func (s *Server) registerServerMetrics() {
	reg := s.obs.Registry()
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
		// Pipeline ledger and model-set gauges, each read from a Stats snapshot.
		{counter, "odin_frames_total", "Frames processed by the drift-aware pipeline.", nil,
			func() float64 { return float64(s.Stats().Frames) }},
		{counter, "odin_outliers_total", "Frames flagged as outliers by the drift detector.", nil,
			func() float64 { return float64(s.Stats().Outliers) }},
		{counter, "odin_drift_events_total", "Drift events raised (outlier clusters crossing the drift threshold).", nil,
			func() float64 { return float64(s.Stats().DriftEvents) }},
		{counter, "odin_dropped_frames_total", "Frames shed by admission-queue drop policies, as ledgered by the pipeline.", nil,
			func() float64 { return float64(s.Stats().Dropped) }},
		{counter, "odin_sim_gpu_seconds_total", "Simulated GPU seconds consumed by detection.", nil,
			func() float64 { return s.Stats().SimTime }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "full"),
			func() float64 { return float64(s.Stats().FullFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "lite"),
			func() float64 { return float64(s.Stats().LiteFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "count"),
			func() float64 { return float64(s.Stats().CountFrames) }},
		{counter, "odin_fidelity_frames_total", fidelityHelp, label("fidelity", "skip"),
			func() float64 { return float64(s.Stats().SkipFrames) }},
		{gauge, "odin_model_generation", "Model-set generation (increments on every trained-model swap).", nil,
			func() float64 { return float64(s.Stats().ModelGen) }},
		{gauge, "odin_resident_models", "Resident specialized models.", nil,
			func() float64 { return float64(s.Stats().NumModels) }},
		{gauge, "odin_clusters", "Discovered concept clusters.", nil,
			func() float64 { return float64(s.Stats().NumClusters) }},
		{gauge, "odin_pending_recoveries", "Drift recoveries scheduled but not yet swapped in (async training).", nil,
			func() float64 { return float64(s.Stats().PendingRecoveries) }},
		{gauge, "odin_model_memory_mb", "Simulated resident model memory in MB.", nil,
			func() float64 { return s.Stats().MemoryMB }},

		// Async trainer outcomes.
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "scratch"),
			func() float64 { return float64(s.TrainerStats().Scratch) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "warm"),
			func() float64 { return float64(s.TrainerStats().Warm) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "adopted"),
			func() float64 { return float64(s.TrainerStats().Adopted) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "coalesced"),
			func() float64 { return float64(s.TrainerStats().Coalesced) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "failed"),
			func() float64 { return float64(s.TrainerStats().Failed) }},
		{counter, "odin_trainer_jobs_total", trainerHelp, label("outcome", "dropped"),
			func() float64 { return float64(s.TrainerStats().Dropped) }},

		// Fleet model registry.
		{gauge, "odin_registry_models", "Models resident in the fleet registry.", nil,
			func() float64 { return float64(s.RegistryStats().Size) }},
		{gauge, "odin_registry_capacity", "Fleet registry capacity bound.", nil,
			func() float64 { return float64(s.RegistryStats().Capacity) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "adopt"),
			func() float64 { return float64(s.RegistryStats().AdoptHits) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "warm"),
			func() float64 { return float64(s.RegistryStats().WarmHits) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "coalesce"),
			func() float64 { return float64(s.RegistryStats().Coalesced) }},
		{counter, "odin_registry_lookups_total", lookupHelp, label("outcome", "miss"),
			func() float64 { return float64(s.RegistryStats().Misses) }},
		{counter, "odin_registry_published_total", "Models published to the fleet registry.", nil,
			func() float64 { return float64(s.RegistryStats().Published) }},
		{counter, "odin_registry_evicted_total", "Fleet registry entries evicted by the LRU capacity bound.", nil,
			func() float64 { return float64(s.RegistryStats().Evicted) }},

		// Fleet dispatcher.
		{counter, "odin_dispatch_batches_total", "Merged ProcessBatch calls issued by the fleet dispatcher.", nil,
			func() float64 { return float64(s.DispatchStats().Batches) }},
		{counter, "odin_dispatch_windows_total", "Session windows flushed through the fleet dispatcher.", nil,
			func() float64 { return float64(s.DispatchStats().Windows) }},
		{counter, "odin_dispatch_frames_total", "Frames processed through the fleet dispatcher.", nil,
			func() float64 { return float64(s.DispatchStats().Frames) }},
		{counter, "odin_dispatch_partial_flushes_total", "Dispatcher flushes cut by the weighted round-robin frame budget.", nil,
			func() float64 { return float64(s.DispatchStats().PartialFlushes) }},
		{gauge, "odin_dispatch_max_merge", "Largest number of windows merged into one dispatcher batch.", nil,
			func() float64 { return float64(s.DispatchStats().MaxMerge) }},
		{gauge, "odin_dispatch_queued_windows", "Windows waiting in the dispatcher assembler.", nil,
			func() float64 { return float64(s.DispatchStats().QueuedWindows) }},
		{gauge, "odin_dispatch_queued_frames", "Frames waiting in the dispatcher assembler.", nil,
			func() float64 { return float64(s.DispatchStats().QueuedFrames) }},
	} {
		m.register(m.name, m.help, m.get, m.labels...)
	}
}
