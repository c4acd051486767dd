package obs

import "time"

// Stage identifies one per-frame serving stage, in pipeline order. The
// tracer keeps a latency histogram and a frame counter per stage, exported
// as odin_stage_seconds{stage} / odin_stage_frames_total{stage}.
type Stage uint8

const (
	// StageAdmission is the time a producer spends pushing one frame into
	// the bounded QoS admission queue (blocking under the Block policy).
	StageAdmission Stage = iota
	// StageQueueWait is the time a frame waits inside the admission queue,
	// from push to pop.
	StageQueueWait
	// StageAssembly is batch-assembly wait: a queue-less session's greedy
	// fill of its window, or the dispatcher window from submit to flush.
	StageAssembly
	// StageProject is the pure DA-GAN projection (ODIN Project).
	StageProject
	// StageAdvance is the serialized drift-state advance (ODIN Advance).
	StageAdvance
	// StageDetect is detector execution over the batch (ODIN Execute).
	StageDetect
	// StageEmit is the time spent handing a finished result to the
	// consumer (channel send on the stream's out channel).
	StageEmit

	numStages
)

// stageNames are the label values, in Stage order.
var stageNames = [numStages]string{
	"admission", "queue_wait", "assembly", "project", "advance", "detect", "emit",
}

// String returns the stage's metric label value.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Tracer records per-stage latencies and frame counts. All methods are
// nil-receiver-safe and allocation-free, so instrumented code calls them
// unconditionally and a disabled observer costs one nil check.
type Tracer struct {
	seconds [numStages]*Histogram
	frames  [numStages]*Counter
}

// newTracer registers the per-stage series in reg.
func newTracer(reg *Registry) *Tracer {
	t := &Tracer{}
	for i := Stage(0); i < numStages; i++ {
		lbl := Label{Key: "stage", Value: i.String()}
		t.seconds[i] = reg.Histogram("odin_stage_seconds",
			"Per-stage serving latency in seconds.", nil, lbl)
		t.frames[i] = reg.Counter("odin_stage_frames_total",
			"Frames that passed through each serving stage.", lbl)
	}
	return t
}

// Observe records one stage sample covering frames frames.
func (t *Tracer) Observe(s Stage, d time.Duration, frames int) {
	if t == nil {
		return
	}
	t.seconds[s].Observe(d.Seconds())
	t.frames[s].Add(frames)
}
