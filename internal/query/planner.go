package query

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"odin/internal/detect"
	"odin/internal/synth"
)

// Typed prepare-time errors. Prepare validates every name a query
// references against the engine registries, so an unknown model, filter or
// class surfaces before any frame is processed (wrapped with the offending
// name; test with errors.Is).
var (
	// ErrUnknownModel: a USING MODEL clause names an unregistered model.
	ErrUnknownModel = errors.New("query: unknown model")
	// ErrUnknownFilter: a USING FILTER clause names an unregistered filter.
	ErrUnknownFilter = errors.New("query: unknown filter")
	// ErrUnknownClass: a WHERE class=… predicate names an unknown class.
	ErrUnknownClass = errors.New("query: unknown class")
	// ErrBadPredicate: a WHERE predicate uses an unsupported field.
	ErrBadPredicate = errors.New("query: unsupported predicate field")
	// ErrMultipleModels: more than one query level carries USING MODEL.
	ErrMultipleModels = errors.New("query: multiple USING MODEL clauses")
)

// PrepareOption adjusts plan construction.
type PrepareOption func(*prepConfig)

type prepConfig struct {
	minScore float64
}

// WithMinScore overrides the engine's detection-confidence floor for this
// plan only. The value is frozen into the plan, so concurrent executions
// never observe a mutated threshold.
func WithMinScore(s float64) PrepareOption {
	return func(c *prepConfig) { c.minScore = s }
}

// planFilter is one bound filter stage.
type planFilter struct {
	name string
	fn   FilterFunc
}

// Plan is a compiled, immutable execution plan: the nested AST flattened
// into an ordered filter→model pipeline with every reference resolved and
// every option frozen at prepare time. A Plan is safe for concurrent and
// repeated Execute calls — re-execution performs no parse or plan work.
type Plan struct {
	sel      SelectKind
	source   string // innermost table name (diagnostics only)
	filters  []planFilter
	model    string
	batch    BatchModelFunc
	single   ModelFunc
	counter  CountModelFunc // COUNT pushdown: non-nil only for COUNT plans
	class    int            // -1: no class predicate
	classVal string         // predicate spelling, for Explain
	minScore float64
}

// Prepare compiles a parsed query into an executable plan. Sub-queries are
// flattened innermost-first into one filter chain; cheap filters are
// ordered ahead of the (single) expensive model stage regardless of
// nesting shape; model, filter and class references are resolved against
// the engine registries now, returning typed errors instead of failing
// mid-execution. Predicates on levels other than the model's are validated
// but inert, matching the executor this planner replaced. The bindings and
// the MinScore threshold are snapshots: later registrations or threshold
// changes do not affect an existing plan.
func (e *Engine) Prepare(q *Query, opts ...PrepareOption) (*Plan, error) {
	cfg := prepConfig{minScore: e.MinScore()}
	for _, o := range opts {
		o(&cfg)
	}
	p := &Plan{sel: q.Select, class: -1, minScore: cfg.minScore}

	// Collect levels outermost→innermost, then walk them in reverse so the
	// innermost filter applies first (it is closest to the scan).
	var levels []*Query
	for cur := q; cur != nil; cur = cur.Sub {
		levels = append(levels, cur)
	}
	p.source = levels[len(levels)-1].Table

	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		if lv.UseFilter != "" {
			fn, ok := e.lookupFilter(lv.UseFilter)
			if !ok {
				return nil, fmt.Errorf("%w %q", ErrUnknownFilter, lv.UseFilter)
			}
			p.filters = append(p.filters, planFilter{name: lv.UseFilter, fn: fn})
		}
		if lv.Where != nil {
			if !strings.EqualFold(lv.Where.Field, "class") {
				return nil, fmt.Errorf("%w %q", ErrBadPredicate, lv.Where.Field)
			}
			if resolveClass(lv.Where.Value) < 0 {
				return nil, fmt.Errorf("%w %q", ErrUnknownClass, lv.Where.Value)
			}
		}
		if lv.UseModel == "" {
			continue
		}
		if p.model != "" {
			return nil, fmt.Errorf("%w (%q and %q)", ErrMultipleModels, p.model, lv.UseModel)
		}
		p.model = lv.UseModel
		bfn, batched, fn, single, cfn := e.lookupModel(lv.UseModel)
		if !batched && !single {
			return nil, fmt.Errorf("%w %q", ErrUnknownModel, lv.UseModel)
		}
		p.batch, p.single = bfn, fn
		// COUNT projection pushdown: a COUNT-only plan needs no boxes, so
		// a count-capable binding replaces the detection stage entirely.
		if p.sel == SelectCount && cfn != nil {
			p.counter = cfn
		}
		if lv.Where != nil {
			p.class = resolveClass(lv.Where.Value)
			p.classVal = lv.Where.Value
		}
	}
	return p, nil
}

// ModelName returns the plan's bound model name ("" for filter-only plans).
func (p *Plan) ModelName() string { return p.model }

// Explain renders the plan as a one-line stage pipeline, e.g.
//
//	scan(stream) -> filter(truck_filter) -> model(odin, batched) -> where(class='car') -> min_score(0.30) -> count
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan(%s)", p.source)
	for _, f := range p.filters {
		fmt.Fprintf(&b, " -> filter(%s)", f.name)
	}
	if p.model != "" {
		mode := "per-frame"
		if p.batch != nil {
			mode = "batched"
		}
		if p.counter != nil {
			mode = "count-pushdown"
		}
		fmt.Fprintf(&b, " -> model(%s, %s)", p.model, mode)
		if p.class >= 0 {
			fmt.Fprintf(&b, " -> where(class='%s')", p.classVal)
		}
		fmt.Fprintf(&b, " -> min_score(%.2f)", p.minScore)
	}
	switch {
	case p.model == "":
		b.WriteString(" -> collect")
	case p.sel == SelectCount:
		b.WriteString(" -> count")
	case p.sel == SelectDetections:
		b.WriteString(" -> detections")
	default:
		b.WriteString(" -> frames")
	}
	return b.String()
}

// Execute runs the plan over frames: filters first (each drop is counted),
// then the model over the surviving frames (one batch call when the
// binding is batch-capable), then the class predicate and score floor. The
// context is consulted before each model invocation; a cancelled run
// returns ctx.Err(). Execute performs no parse or plan work and is safe
// for concurrent use.
func (p *Plan) Execute(ctx context.Context, frames []*synth.Frame) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{FramesScanned: len(frames)}
	live := make([]bool, len(frames))
	for i := range live {
		live[i] = true
	}
	p.runFilters(frames, live, res)
	if p.model == "" {
		return res, nil
	}

	// Gather survivors so batch models see one contiguous window; liveIdx
	// maps batch positions back to input positions.
	liveFrames := make([]*synth.Frame, 0, len(frames))
	liveIdx := make([]int, 0, len(frames))
	for i, f := range frames {
		if live[i] {
			liveFrames = append(liveFrames, f)
			liveIdx = append(liveIdx, i)
		}
	}
	// COUNT pushdown: the count binding applies the score floor and class
	// predicate inside the model's execute stage, so no detection boxes are
	// materialised anywhere on the path.
	if p.counter != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts := p.counter(liveFrames, p.class, p.minScore)
		if len(counts) != len(liveFrames) {
			return nil, fmt.Errorf("query: count model %q returned %d counts for %d frames",
				p.model, len(counts), len(liveFrames))
		}
		res.PerFrame = make([]int, len(frames))
		for k, i := range liveIdx {
			res.ModelFrames++
			res.PerFrame[i] = counts[k]
			res.Count += counts[k]
		}
		return res, nil
	}

	var dets [][]detect.Detection
	if p.batch != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dets = p.batch(liveFrames)
		if len(dets) != len(liveFrames) {
			return nil, fmt.Errorf("query: batch model %q returned %d results for %d frames",
				p.model, len(dets), len(liveFrames))
		}
	} else {
		dets = make([][]detect.Detection, len(liveFrames))
		for k, f := range liveFrames {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			dets[k] = p.single(f)
		}
	}

	res.PerFrame = make([]int, len(frames))
	if p.sel != SelectCount {
		res.Detections = make([][]detect.Detection, len(frames))
	}
	for k, i := range liveIdx {
		res.ModelFrames++
		p.reduceInto(res, i, dets[k])
	}
	return res, nil
}

// ExecuteOver applies the plan's filter, predicate and projection stages
// to detections already produced for frames — the shared-pipeline path of
// continuous queries, where the stream session has run the drift pipeline
// over the window once and every subscription reduces the same results.
// Filters act as counting filters here: a dropped frame reports zero and
// its detections are ignored, but no model work is saved (the shared
// pipeline must observe every frame for drift detection).
func (p *Plan) ExecuteOver(frames []*synth.Frame, dets [][]detect.Detection) *Result {
	res := &Result{FramesScanned: len(frames)}
	live := make([]bool, len(frames))
	for i := range live {
		live[i] = true
	}
	p.runFilters(frames, live, res)
	res.PerFrame = make([]int, len(frames))
	if p.sel != SelectCount {
		res.Detections = make([][]detect.Detection, len(frames))
	}
	for i := range frames {
		if !live[i] {
			continue
		}
		res.ModelFrames++
		p.reduceInto(res, i, dets[i])
	}
	return res
}

// runFilters applies the plan's filter chain in order, clearing live slots
// and counting drops. A frame dropped by one filter is not offered to the
// next.
func (p *Plan) runFilters(frames []*synth.Frame, live []bool, res *Result) {
	for _, pf := range p.filters {
		for i, f := range frames {
			if live[i] && !pf.fn(f) {
				live[i] = false
				res.FramesFiltered++
			}
		}
	}
}

// reduceInto applies the score floor and class predicate to one frame's
// detections and accumulates the projection. COUNT plans count without
// materialising the kept detections.
func (p *Plan) reduceInto(res *Result, i int, dets []detect.Detection) {
	if p.sel == SelectCount {
		n := 0
		for _, d := range dets {
			if p.keeps(d) {
				n++
			}
		}
		res.PerFrame[i] = n
		res.Count += n
		return
	}
	var kept []detect.Detection
	for _, d := range dets {
		if p.keeps(d) {
			kept = append(kept, d)
		}
	}
	res.Detections[i] = kept
	res.PerFrame[i] = len(kept)
	res.Count += len(kept)
}

// keeps reports whether a detection survives the plan's score floor and
// class predicate.
func (p *Plan) keeps(d detect.Detection) bool {
	if d.Score < p.minScore {
		return false
	}
	return p.class < 0 || d.Box.Class == p.class
}
