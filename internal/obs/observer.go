package obs

import "time"

// Observer bundles the registry, tracer and event log one server exports.
// Every method is nil-receiver-safe: the serving stack calls them
// unconditionally, and a server without WithObservability holds a nil
// *Observer, making the disabled cost one predictable nil check per hook.
//
// Direct instrumentation (tracer stages, event counters, QoS drop/reject
// counters, dispatcher merge widths, trainer build durations) lives here;
// counters a subsystem already maintains under its own lock (core Stats,
// TrainerStats, RegistryStats, DispatchStats) are exported via scrape-time
// CounterFunc/GaugeFunc callbacks instead of being double-counted on the
// hot path.
type Observer struct {
	reg    *Registry
	trace  *Tracer
	events *EventLog

	evCount map[string]*Counter // fixed at New; read-only afterwards

	qosDropped  *Counter
	qosRejected *Counter
	mergeWidth  *Histogram
	buildSecs   map[string]*Histogram // "scratch" | "warm"
}

// New builds an observer with an empty registry, the per-stage tracer and
// an event ring of eventCap entries (≤ 0 selects 256).
func New(eventCap int) *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:       reg,
		trace:     newTracer(reg),
		events:    NewEventLog(eventCap),
		evCount:   make(map[string]*Counter, len(EventKinds())),
		buildSecs: make(map[string]*Histogram, 2),
	}
	for _, kind := range EventKinds() {
		o.evCount[kind] = reg.Counter("odin_events_total",
			"Lifecycle events by kind (drift, recovery, fidelity, checkpoint).",
			Label{Key: "kind", Value: kind})
	}
	o.qosDropped = reg.Counter("odin_qos_dropped_frames_total",
		"Frames dropped by the bounded admission queue (drop-newest/oldest markers).")
	o.qosRejected = reg.Counter("odin_qos_rejected_frames_total",
		"Frames rejected by non-blocking admission offers (TryPush).")
	o.mergeWidth = reg.Histogram("odin_dispatch_merge_windows",
		"Windows merged per dispatcher flush.", LinearBounds(1, 1, 16))
	for _, mode := range []string{"scratch", "warm"} {
		o.buildSecs[mode] = reg.Histogram("odin_train_build_seconds",
			"Recovery training build duration in seconds.", nil,
			Label{Key: "mode", Value: mode})
	}
	return o
}

// Registry returns the metric registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Events returns the lifecycle event ring (nil on a nil observer).
func (o *Observer) Events() *EventLog {
	if o == nil {
		return nil
	}
	return o.events
}

// Now returns the current time on an enabled observer and the zero time on
// a nil one, so instrumented code pays no clock read when disabled:
//
//	t0 := o.Now()
//	... stage ...
//	o.Stage(obs.StageProject, t0, n)
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stage records time.Since(t0) against stage s for frames frames.
func (o *Observer) Stage(s Stage, t0 time.Time, frames int) {
	if o == nil {
		return
	}
	o.trace.Observe(s, time.Since(t0), frames)
}

// StageDur records an already-measured duration against stage s.
func (o *Observer) StageDur(s Stage, d time.Duration, frames int) {
	if o == nil {
		return
	}
	o.trace.Observe(s, d, frames)
}

// Event appends a lifecycle event to the ring and bumps its kind counter.
// Pass cluster/gen -1 when not applicable.
func (o *Observer) Event(kind, stream string, cluster, gen int, detail string) {
	if o == nil {
		return
	}
	o.evCount[kind].Inc() // nil-safe for unknown kinds
	o.events.Append(Event{Kind: kind, Stream: stream, Cluster: cluster, Gen: gen, Detail: detail})
}

// DroppedFrames books n frames dropped by a bounded admission queue.
func (o *Observer) DroppedFrames(n int) {
	if o == nil {
		return
	}
	o.qosDropped.Add(n)
}

// RejectedFrames books n frames rejected by non-blocking admission.
func (o *Observer) RejectedFrames(n int) {
	if o == nil {
		return
	}
	o.qosRejected.Add(n)
}

// MergeWindows records the number of windows merged into one dispatcher
// flush.
func (o *Observer) MergeWindows(n int) {
	if o == nil {
		return
	}
	o.mergeWidth.Observe(float64(n))
}

// BuildSeconds records one recovery training build ("scratch" or "warm").
func (o *Observer) BuildSeconds(mode string, d time.Duration) {
	if o == nil {
		return
	}
	o.buildSecs[mode].Observe(d.Seconds())
}
