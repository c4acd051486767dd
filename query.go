package odin

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"odin/internal/query"
)

// Typed query errors, re-exported from the planner so callers can test
// prepare-time failures with errors.Is without importing internal packages.
var (
	// ErrUnknownModel is returned by Prepare when a query references an
	// unregistered model.
	ErrUnknownModel = query.ErrUnknownModel
	// ErrUnknownFilter is returned by Prepare when a query references an
	// unregistered filter.
	ErrUnknownFilter = query.ErrUnknownFilter
	// ErrUnknownClass is returned by Prepare for an unknown WHERE class.
	ErrUnknownClass = query.ErrUnknownClass
	// ErrBadPredicate is returned by Prepare for a WHERE predicate on an
	// unsupported field.
	ErrBadPredicate = query.ErrBadPredicate
	// ErrMultipleModels is returned by Prepare when more than one query
	// level carries USING MODEL.
	ErrMultipleModels = query.ErrMultipleModels
	// ErrForeignQuery is returned when a PreparedQuery is used with a
	// server (or a stream of a server) other than the one that prepared it.
	ErrForeignQuery = errors.New("odin: prepared query belongs to a different server")
)

// Projection is what a query emits per frame set.
type Projection int

// Projections.
const (
	// Count projects the total and per-frame detection count —
	// SELECT COUNT(detections).
	Count Projection = iota
	// Detections projects the surviving detections per frame —
	// SELECT detections.
	Detections
	// AllFrames is the SELECT * pass-through.
	AllFrames
)

// Predicate is a typed WHERE condition. Construct with Class or ClassID.
type Predicate struct {
	field string
	value string
}

// Class restricts counted detections to a named object class ("car",
// "truck", "person", "traffic_light", "sign").
func Class(name string) Predicate { return Predicate{field: "class", value: name} }

// ClassID restricts counted detections to a numeric class id.
func ClassID(id int) Predicate { return Predicate{field: "class", value: strconv.Itoa(id)} }

// Query is the typed query builder: a programmatic, composable alternative
// to the SQL dialect. Builder calls return the receiver, so a query reads
// as one chain:
//
//	q := odin.Select(odin.Count).
//	    From("cam-0").
//	    UsingFilter("truck_filter").
//	    UsingModel("odin").
//	    Where(odin.Class("truck"))
//	pq, err := srv.Prepare(q)
//
// The zero builder is not useful; start with Select. Builders are cheap
// and single-use-or-reuse — compiling (Server.Prepare) never mutates one.
type Query struct {
	sel      Projection
	source   string
	filters  []string
	model    string
	where    *Predicate
	minScore *float64
	err      error // first construction error, surfaced by Prepare
}

// Select starts a query with the given projection. The source defaults to
// "stream" until From overrides it (the source name is informational — the
// frame set is supplied at execution time).
func Select(p Projection) *Query {
	q := &Query{sel: p, source: "stream"}
	if p != Count && p != Detections && p != AllFrames {
		q.err = fmt.Errorf("odin: invalid projection %d", int(p))
	}
	return q
}

// validIdent reports whether s is a dialect identifier — a letter or '_'
// followed by letters, digits, '_' or '-', and not a reserved keyword —
// so every name the builder accepts renders back to parseable SQL.
func validIdent(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case i > 0 && (r >= '0' && r <= '9' || r == '-'):
		default:
			return false
		}
	}
	return s != "" && !query.IsKeyword(s)
}

// From names the frame source (diagnostics and Explain output only). The
// name must be a dialect identifier (letters, digits, '_', '-'), keeping
// SQL() parseable.
func (q *Query) From(source string) *Query {
	if !validIdent(source) {
		q.fail(fmt.Errorf("odin: invalid source name %q", source))
		return q
	}
	q.source = source
	return q
}

// UsingFilter appends lightweight pre-screen filters, applied in the order
// given before any model runs. Names must be dialect identifiers.
func (q *Query) UsingFilter(names ...string) *Query {
	for _, n := range names {
		if !validIdent(n) {
			q.fail(fmt.Errorf("odin: invalid filter name %q", n))
			return q
		}
		q.filters = append(q.filters, n)
	}
	return q
}

// UsingModel binds the detection model ("odin", "yolo", or a registered
// custom model). A query carries at most one model; the name must be a
// dialect identifier.
func (q *Query) UsingModel(name string) *Query {
	if !validIdent(name) {
		q.fail(fmt.Errorf("odin: invalid model name %q", name))
		return q
	}
	if q.model != "" && q.model != name {
		q.fail(fmt.Errorf("odin: model already set to %q", q.model))
		return q
	}
	q.model = name
	return q
}

// Where sets the class predicate applied to the model's detections.
func (q *Query) Where(p Predicate) *Query {
	q.where = &p
	return q
}

// WithMinScore overrides the server's detection-confidence floor for this
// query only.
func (q *Query) WithMinScore(s float64) *Query {
	if !(s >= 0 && s <= 1) { // written to also reject NaN
		q.fail(fmt.Errorf("odin: min score must be in [0,1], got %v", s))
		return q
	}
	v := s
	q.minScore = &v
	return q
}

// fail records the first construction error.
func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// SQL renders the equivalent statement in the query dialect; the result
// parses back to the same plan via PrepareSQL, except that a WithMinScore
// override is not expressible in the dialect — a replayed statement
// compiles with the server's default floor.
func (q *Query) SQL() string {
	ast, err := q.ast()
	if err != nil {
		return ""
	}
	return ast.String()
}

// ast lowers the builder into the dialect's nested AST: each filter on its
// own sub-query level (the dialect allows one USING FILTER per level),
// model, predicate and projection on the outermost level.
func (q *Query) ast() (*query.Query, error) {
	if q.err != nil {
		return nil, q.err
	}
	var sel query.SelectKind
	switch q.sel {
	case Count:
		sel = query.SelectCount
	case Detections:
		sel = query.SelectDetections
	default:
		sel = query.SelectAll
	}
	cur := &query.Query{Select: query.SelectAll, Table: q.source}
	for i, f := range q.filters {
		if i == 0 {
			cur.UseFilter = f
		} else {
			cur = &query.Query{Select: query.SelectAll, Sub: cur, UseFilter: f}
		}
	}
	out := cur
	if len(q.filters) > 0 {
		out = &query.Query{Select: sel, Sub: cur}
	} else {
		out.Select = sel
	}
	out.UseModel = q.model
	if q.where != nil {
		out.Where = &query.Pred{Field: q.where.field, Value: q.where.value}
	}
	return out, nil
}

// PreparedQuery is a compiled, reusable query plan bound to the server
// that prepared it. Execution performs no parse or plan work; a prepared
// query is safe for concurrent and repeated Execute calls, and can be
// attached to live streams as a standing query via Stream.Subscribe.
type PreparedQuery struct {
	srv  *Server
	plan *query.Plan
	sql  string
	// pipelineShared marks plans whose model is the server's drift-aware
	// pipeline: continuous subscriptions reduce the stream session's own
	// ProcessBatch results instead of re-running detection.
	pipelineShared bool
}

// Prepare compiles a built query against the server's registries: filters
// are ordered ahead of the model, every model/filter/class reference is
// resolved now (typed errors — ErrUnknownModel, ErrUnknownFilter,
// ErrUnknownClass), and the score floor is frozen into the plan. Queries
// that reference only custom registered models prepare and run before
// Bootstrap; the built-in "odin"/"yolo" bindings exist only after it
// (ErrNotBootstrapped).
func (s *Server) Prepare(q *Query) (*PreparedQuery, error) {
	ast, err := q.ast()
	if err != nil {
		return nil, err
	}
	var opts []query.PrepareOption
	if q.minScore != nil {
		opts = append(opts, query.WithMinScore(*q.minScore))
	}
	return s.prepareAST(ast, ast.String(), opts...)
}

// PrepareSQL parses and compiles a statement in the query dialect.
func (s *Server) PrepareSQL(sql string) (*PreparedQuery, error) {
	ast, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.prepareAST(ast, sql)
}

// builtinModel reports whether name is one of the bindings Bootstrap
// installs.
func builtinModel(name string) bool { return name == "odin" || name == "yolo" }

// prepareAST compiles a parsed AST against the engine, mapping "unknown
// model" for a built-in binding on an un-bootstrapped server to the
// lifecycle error. sql is the statement the plan reports from SQL() —
// passed through rather than re-rendered, to keep the one-shot Query path
// lean.
func (s *Server) prepareAST(ast *query.Query, sql string, opts ...query.PrepareOption) (*PreparedQuery, error) {
	s.mu.Lock()
	closed, booted := s.closed, s.booted
	s.mu.Unlock()
	if closed {
		return nil, ErrServerClosed
	}
	plan, err := s.engine.Prepare(ast, opts...)
	if err != nil {
		if !booted && errors.Is(err, query.ErrUnknownModel) && builtinModel(modelOf(ast)) {
			return nil, ErrNotBootstrapped
		}
		return nil, err
	}
	return &PreparedQuery{
		srv:            s,
		plan:           plan,
		sql:            sql,
		pipelineShared: plan.ModelName() == "odin",
	}, nil
}

// modelOf returns the model name a query AST references ("" when none).
func modelOf(ast *query.Query) string {
	for cur := ast; cur != nil; cur = cur.Sub {
		if cur.UseModel != "" {
			return cur.UseModel
		}
	}
	return ""
}

// Execute runs the prepared plan over a frame set. Re-execution performs
// zero parse/plan work. The context cancels execution between model
// invocations. A plan bound to "odin" or "yolo" runs only over frames of
// Server.FrameShape(): any other frame fails the whole call with
// ErrFrameShape, naming its index, before a model runs.
func (pq *PreparedQuery) Execute(ctx context.Context, frames []*Frame) (*QueryResult, error) {
	if err := pq.srv.alive(); err != nil {
		return nil, err
	}
	if builtinModel(pq.plan.ModelName()) {
		for i, f := range frames {
			if err := pq.srv.checkFrame(f); err != nil {
				return nil, fmt.Errorf("odin: frame %d: %w", i, err)
			}
		}
	}
	return pq.plan.Execute(ctx, frames)
}

// Explain renders the compiled plan as a one-line stage pipeline, e.g.
//
//	scan(stream) -> filter(truck_filter) -> model(odin, batched) -> where(class='truck') -> min_score(0.30) -> count
func (pq *PreparedQuery) Explain() string { return pq.plan.Explain() }

// SQL returns the statement the plan was compiled from (builder queries
// render their dialect equivalent). A builder WithMinScore override is
// not part of the dialect: re-preparing the returned statement uses the
// server default floor — Explain, which renders the frozen threshold, is
// the faithful description of this plan.
func (pq *PreparedQuery) SQL() string { return pq.sql }
