package obs

import (
	"sync"
	"time"
)

// Lifecycle event kinds. The set is closed: every kind has a
// pre-registered odin_events_total{kind} counter so the exposition family
// layout is stable from the first scrape.
const (
	EvDrift             = "drift"              // drift detected on a cluster
	EvRecoveryEnqueued  = "recovery_enqueued"  // training job scheduled
	EvRecoveryScratch   = "recovery_scratch"   // job trained from scratch
	EvRecoveryWarm      = "recovery_warm"      // job warm-started from a fleet model
	EvRecoveryAdopted   = "recovery_adopted"   // fleet model adopted without training
	EvRecoveryCoalesced = "recovery_coalesced" // job coalesced onto an in-flight build
	EvRecoverySwapped   = "recovery_swapped"   // recovered model installed (atomic swap)
	EvRecoveryRollback  = "recovery_rollback"  // built model not installed (evicted cluster, superseded lite)
	EvRecoveryFailed    = "recovery_failed"    // training errored
	EvRecoveryDropped   = "recovery_dropped"   // job dropped unbuilt (trainer closed)
	EvFidelityDegrade   = "fidelity_degrade"   // QoS controller stepped a stream down
	EvFidelityRestore   = "fidelity_restore"   // QoS controller stepped a stream up
	EvCheckpointSave    = "checkpoint_save"    // Checkpoint wrote a snapshot
	EvCheckpointRestore = "checkpoint_restore" // Restore rebuilt a server
)

// EventKinds lists every lifecycle event kind, in emission-category order.
func EventKinds() []string {
	return []string{
		EvDrift,
		EvRecoveryEnqueued, EvRecoveryScratch, EvRecoveryWarm, EvRecoveryAdopted,
		EvRecoveryCoalesced, EvRecoverySwapped, EvRecoveryRollback, EvRecoveryFailed,
		EvRecoveryDropped,
		EvFidelityDegrade, EvFidelityRestore,
		EvCheckpointSave, EvCheckpointRestore,
	}
}

// Event is one structured lifecycle record: what happened, where, and when.
// Events are operator telemetry — they never feed back into the pipeline,
// and their timestamps are wall-clock (they are not part of any
// determinism contract).
type Event struct {
	Seq     uint64    `json:"seq"`              // monotonically increasing per log
	Time    time.Time `json:"time"`             // wall-clock emission time
	Kind    string    `json:"kind"`             // one of the Ev* constants
	Stream  string    `json:"stream,omitempty"` // stream name, when known
	Cluster int       `json:"cluster"`          // drift-cluster id, -1 when not applicable
	Gen     int       `json:"gen"`              // model generation, -1 when not applicable
	Detail  string    `json:"detail,omitempty"` // free-form context
}

// EventLog is a bounded ring of recent events. Emission takes a mutex —
// events are rare (drift, recoveries, fidelity transitions), never
// per-frame — and the ring never grows past its capacity.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int // write cursor
	n    int // filled entries, ≤ len(buf)
	seq  uint64
}

// NewEventLog creates a ring holding the most recent capacity events
// (capacity ≤ 0 selects 256).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// Append records e, stamping Seq and (if unset) Time.
func (l *EventLog) Append(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Recent returns up to n most recent events, oldest first. n ≤ 0 returns
// everything retained.
func (l *EventLog) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, n)
	start := l.next - n
	if start < 0 {
		start += len(l.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = l.buf[(start+i)%len(l.buf)]
	}
	return out
}
