package query

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"odin/internal/detect"
	"odin/internal/synth"
)

// ModelFunc produces detections for one frame — bound to a static model or
// to ODIN's selector-driven pipeline.
type ModelFunc func(f *synth.Frame) []detect.Detection

// BatchModelFunc produces detections for a window of frames at once,
// aligned with the input order. Batch bindings let the engine hand the
// whole live-frame set to models that amortise work across frames (the
// sharded ODIN pipeline, the baseline's batched forward pass); when both a
// batch and a per-frame binding exist for a name, the batch one wins.
type BatchModelFunc func(frames []*synth.Frame) [][]detect.Detection

// FilterFunc is a lightweight boolean pre-screen: false drops the frame
// before the heavyweight model runs (§6.6 "lightweight filters").
type FilterFunc func(f *synth.Frame) bool

// CountModelFunc is the COUNT-pushdown binding of a model: it returns, per
// frame, the number of detections clearing minScore whose class matches
// class (class < 0 counts every class) — without materialising detection
// boxes. COUNT-only plans prefer it over the batch/per-frame bindings; its
// counts must equal filtering the full binding's output.
type CountModelFunc func(frames []*synth.Frame, class int, minScore float64) []int

// Engine prepares and executes queries over a frame source. Registration,
// preparation and execution are safe for concurrent use: the registries
// are guarded by a read-write mutex (registrations are rare, queries are
// hot), and each prepared Plan freezes the bindings it was compiled with.
// The score floor is fixed at construction.
type Engine struct {
	// minScore is the detection-confidence floor plans compile with unless
	// the WithMinScore prepare option overrides it.
	minScore float64

	mu          sync.RWMutex
	models      map[string]ModelFunc
	batchModels map[string]BatchModelFunc
	countModels map[string]CountModelFunc
	filters     map[string]FilterFunc
}

// DefaultMinScore is the detection-confidence floor a server's engine gets
// unless it is configured otherwise.
const DefaultMinScore = 0.3

// NewEngine returns an engine with empty registries and the given default
// score floor.
func NewEngine(minScore float64) *Engine {
	return &Engine{
		minScore:    minScore,
		models:      make(map[string]ModelFunc),
		batchModels: make(map[string]BatchModelFunc),
		countModels: make(map[string]CountModelFunc),
		filters:     make(map[string]FilterFunc),
	}
}

// RegisterModel binds a model name usable in USING MODEL clauses.
func (e *Engine) RegisterModel(name string, fn ModelFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.models[name] = fn
}

// RegisterBatchModel binds a batch-capable model name usable in USING
// MODEL clauses; it takes precedence over a per-frame binding of the same
// name.
func (e *Engine) RegisterBatchModel(name string, fn BatchModelFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchModels[name] = fn
}

// RegisterCountModel binds a count-only fast path for an already
// registered model name: COUNT plans compiled after the registration
// execute it instead of the batch/per-frame binding, skipping detection
// materialisation. It never makes an otherwise unregistered name valid —
// a model must still have a batch or per-frame binding.
func (e *Engine) RegisterCountModel(name string, fn CountModelFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.countModels[name] = fn
}

// RegisterFilter binds a filter name usable in USING FILTER clauses.
func (e *Engine) RegisterFilter(name string, fn FilterFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.filters[name] = fn
}

// lookupFilter returns the registered filter, if any.
func (e *Engine) lookupFilter(name string) (FilterFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn, ok := e.filters[name]
	return fn, ok
}

// lookupModel returns the registered batch, per-frame and count bindings
// of name.
func (e *Engine) lookupModel(name string) (BatchModelFunc, bool, ModelFunc, bool, CountModelFunc) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	bfn, batched := e.batchModels[name]
	fn, single := e.models[name]
	return bfn, batched, fn, single, e.countModels[name]
}

// Result is the output of executing a query.
type Result struct {
	// Count is the total detection count (COUNT queries).
	Count int
	// PerFrame is the per-input-frame count, aligned with the input order;
	// frames dropped by filters report 0.
	PerFrame []int
	// Detections holds per-frame detections for SELECT detections queries.
	Detections [][]detect.Detection

	FramesScanned  int
	FramesFiltered int // frames dropped by USING FILTER
	ModelFrames    int // frames actually processed by a model
}

// DataReduction is the fraction of frames the filter eliminated.
func (r Result) DataReduction() float64 {
	if r.FramesScanned == 0 {
		return 0
	}
	return float64(r.FramesFiltered) / float64(r.FramesScanned)
}

// Run parses, plans and executes a query string over frames — the
// one-shot convenience path. Callers issuing the same query repeatedly
// should Prepare once and Execute the Plan instead. The context cancels
// execution between per-frame model invocations (and before each batch
// invocation); a cancelled run returns ctx.Err().
func (e *Engine) Run(ctx context.Context, sql string, frames []*synth.Frame) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, q, frames)
}

// Execute plans and runs a parsed query over frames.
func (e *Engine) Execute(ctx context.Context, q *Query, frames []*synth.Frame) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, frames)
}

// resolveClass accepts a class name ('car') or a numeric id.
func resolveClass(v string) int {
	if id, err := strconv.Atoi(v); err == nil {
		if id >= 0 && id < synth.NumClasses {
			return id
		}
		return -1
	}
	return synth.ClassByName(strings.ToLower(v))
}

// QueryAccuracy is the symmetric per-frame relative count accuracy used in
// the Table 6 reproduction: mean over frames of 1 − |pred−true| /
// max(pred, true, 1). (The paper does not define its query-accuracy metric
// precisely; this one is 1.0 for exact counts and degrades smoothly.)
func QueryAccuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("query: accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i := range pred {
		p, tr := pred[i], truth[i]
		den := p
		if tr > den {
			den = tr
		}
		if den == 0 {
			sum++
			continue
		}
		diff := p - tr
		if diff < 0 {
			diff = -diff
		}
		sum += 1 - float64(diff)/float64(den)
	}
	return sum / float64(len(pred))
}

// TrueCounts extracts the per-frame ground-truth count of a class.
func TrueCounts(frames []*synth.Frame, class int) []int {
	out := make([]int, len(frames))
	for i, f := range frames {
		for _, b := range f.Boxes {
			if b.Class == class {
				out[i]++
			}
		}
	}
	return out
}
