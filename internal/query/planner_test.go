package query

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"odin/internal/detect"
	"odin/internal/synth"
)

// TestParseErrorPaths is the table-driven malformed-SQL sweep: every case
// must fail at Parse (not at prepare or mid-execution).
func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		sql  string
	}{
		{"empty input", ""},
		{"empty select", "SELECT FROM bdd"},
		{"missing from", "SELECT COUNT(detections) USING MODEL m"},
		{"unterminated sub-query", "SELECT COUNT(detections) FROM (SELECT * FROM bdd"},
		{"unterminated sub-query nested", "SELECT * FROM (SELECT * FROM (SELECT * FROM bdd)"},
		{"unknown keyword after using", "SELECT COUNT(detections) FROM bdd USING TURBO x"},
		{"count without parens", "SELECT COUNT detections FROM bdd"},
		{"count unclosed", "SELECT COUNT(detections FROM bdd"},
		{"predicate without value", "SELECT COUNT(detections) FROM bdd WHERE class"},
		{"predicate without equals", "SELECT COUNT(detections) FROM bdd WHERE class 'car'"},
		{"trailing garbage", "SELECT COUNT(detections) FROM bdd extra garbage"},
		{"unterminated string", "SELECT COUNT(detections) FROM bdd WHERE class='car"},
		{"bad character", "SELECT @ FROM bdd"},
		{"missing table", "SELECT * FROM USING MODEL m"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.sql); err == nil {
				t.Fatalf("expected parse error for %q", c.sql)
			}
		})
	}
}

// TestPrepareValidation pins the typed prepare-time errors: unknown
// names and bad predicates fail at Prepare with errors.Is-testable
// sentinels, before any frame is touched.
func TestPrepareValidation(t *testing.T) {
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("m", oracleModel)
	e.RegisterFilter("f", func(*synth.Frame) bool { return true })

	cases := []struct {
		name string
		sql  string
		want error
	}{
		{"unknown model", "SELECT COUNT(detections) FROM bdd USING MODEL nope", ErrUnknownModel},
		{"unknown filter", "SELECT * FROM bdd USING FILTER nope", ErrUnknownFilter},
		{"unknown filter nested", "SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER nope) USING MODEL m", ErrUnknownFilter},
		{"unknown class name", "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE class='dragon'", ErrUnknownClass},
		{"class id out of range", "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE class=99", ErrUnknownClass},
		{"bad predicate field", "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE color='red'", ErrBadPredicate},
		{"bad predicate inner level", "SELECT COUNT(detections) FROM (SELECT * FROM bdd WHERE color='red') USING MODEL m", ErrBadPredicate},
		{"multiple models", "SELECT COUNT(detections) FROM (SELECT detections FROM bdd USING MODEL m) USING MODEL m", ErrMultipleModels},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.sql)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := e.Prepare(q); !errors.Is(err, c.want) {
				t.Fatalf("Prepare error %v, want %v", err, c.want)
			}
		})
	}

	// The sentinel carries the offending name.
	q, _ := Parse("SELECT COUNT(detections) FROM bdd USING MODEL ghost")
	if _, err := e.Prepare(q); err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("error should name the missing model: %v", err)
	}
}

// TestExplainGolden pins the Explain rendering of representative plans.
func TestExplainGolden(t *testing.T) {
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("oracle", oracleModel)
	e.RegisterBatchModel("batched_oracle", func(fs []*synth.Frame) [][]detect.Detection {
		out := make([][]detect.Detection, len(fs))
		for i, f := range fs {
			out[i] = oracleModel(f)
		}
		return out
	})
	e.RegisterFilter("car_filter", func(*synth.Frame) bool { return true })
	e.RegisterFilter("day_filter", func(*synth.Frame) bool { return true })

	cases := []struct {
		sql  string
		opts []PrepareOption
		want string
	}{
		{
			sql:  "SELECT COUNT(detections) FROM stream USING MODEL oracle WHERE class='car'",
			want: "scan(stream) -> model(oracle, per-frame) -> where(class='car') -> min_score(0.30) -> count",
		},
		{
			sql: "SELECT COUNT(detections) FROM (SELECT * FROM (SELECT * FROM bdd USING FILTER day_filter) USING FILTER car_filter) USING MODEL batched_oracle WHERE class='car'",
			want: "scan(bdd) -> filter(day_filter) -> filter(car_filter) " +
				"-> model(batched_oracle, batched) -> where(class='car') -> min_score(0.30) -> count",
		},
		{
			sql:  "SELECT detections FROM stream USING MODEL oracle",
			opts: []PrepareOption{WithMinScore(0.5)},
			want: "scan(stream) -> model(oracle, per-frame) -> min_score(0.50) -> detections",
		},
		{
			sql:  "SELECT * FROM stream USING FILTER car_filter",
			want: "scan(stream) -> filter(car_filter) -> collect",
		},
	}
	for _, c := range cases {
		q, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		p, err := e.Prepare(q, c.opts...)
		if err != nil {
			t.Fatalf("prepare %q: %v", c.sql, err)
		}
		if got := p.Explain(); got != c.want {
			t.Errorf("Explain mismatch for %q:\n got  %s\n want %s", c.sql, got, c.want)
		}
	}
}

// TestPlannerFlattensFilterBeforeModel: the planner orders cheap filters
// ahead of the expensive model even when the SQL nests the model inside
// the filter level, so filtered frames never reach the model.
func TestPlannerFlattensFilterBeforeModel(t *testing.T) {
	frames := makeFrames(21, 12)
	e := NewEngine(DefaultMinScore)
	seen := 0
	e.RegisterModel("counting", func(f *synth.Frame) []detect.Detection {
		seen++
		return oracleModel(f)
	})
	i := -1
	e.RegisterFilter("odd", func(*synth.Frame) bool { i++; return i%2 == 1 })
	sql := "SELECT COUNT(detections) FROM (SELECT detections FROM bdd USING MODEL counting WHERE class='car') USING FILTER odd"
	res, err := e.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 6 {
		t.Fatalf("model ran on %d frames; planner should filter first (want 6)", seen)
	}
	if res.FramesFiltered != 6 || res.ModelFrames != 6 {
		t.Fatalf("stage counts wrong: %+v", res)
	}
}

// TestPlanMinScoreOption: the score floor is frozen per plan; a plan
// without the option takes the engine's floor, plans with different
// thresholds over the same engine disagree exactly as expected, and
// rebinding the model after Prepare changes nothing.
func TestPlanMinScoreOption(t *testing.T) {
	frames := makeFrames(22, 6)
	e := NewEngine(0.99)
	e.RegisterModel("half", func(f *synth.Frame) []detect.Detection {
		out := oracleModel(f)
		for i := range out {
			out[i].Score = 0.5
		}
		return out
	})
	q, err := Parse("SELECT COUNT(detections) FROM bdd USING MODEL half WHERE class='car'")
	if err != nil {
		t.Fatal(err)
	}
	loose, err := e.Prepare(q, WithMinScore(0.3))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := e.Prepare(q, WithMinScore(0.9))
	if err != nil {
		t.Fatal(err)
	}
	def, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if def.minScore != 0.99 {
		t.Fatalf("plan without WithMinScore froze %v, want the engine's 0.99", def.minScore)
	}
	// must not retro-affect prepared plans
	e.RegisterModel("half", func(*synth.Frame) []detect.Detection { return nil })

	lres, err := loose.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := strict.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Count == 0 {
		t.Fatal("loose plan should count 0.5-score detections")
	}
	if sres.Count != 0 {
		t.Fatalf("strict plan counted %d detections above 0.9", sres.Count)
	}
	if loose.minScore != 0.3 || strict.minScore != 0.9 {
		t.Fatal("plans should freeze their thresholds")
	}
}

// TestMinScoreConcurrentAccess: model and filter registrations race
// against concurrent prepare+execute, which read the registries and the
// engine's score floor, without tripping the race detector.
func TestMinScoreConcurrentAccess(t *testing.T) {
	frames := makeFrames(23, 4)
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("oracle", oracleModel)
	e.RegisterFilter("any", func(*synth.Frame) bool { return true })
	q, err := Parse("SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER any) USING MODEL oracle WHERE class='car'")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					e.RegisterModel("oracle", oracleModel)
					e.RegisterFilter("any", func(*synth.Frame) bool { return true })
					continue
				}
				p, err := e.Prepare(q)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Execute(context.Background(), frames); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPrepareExecuteMatchesRun: the prepared path and the one-shot Run
// path produce identical results.
func TestPrepareExecuteMatchesRun(t *testing.T) {
	frames := makeFrames(24, 16)
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("oracle", oracleModel)
	i := -1
	e.RegisterFilter("odd", func(*synth.Frame) bool { i++; return i%2 == 1 })
	sql := "SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER odd) USING MODEL oracle WHERE class='car'"

	i = -1
	want, err := e.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	i = -1
	got, err := p.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.ModelFrames != want.ModelFrames || got.FramesFiltered != want.FramesFiltered {
		t.Fatalf("prepared result %+v, want %+v", got, want)
	}
	for i := range want.PerFrame {
		if got.PerFrame[i] != want.PerFrame[i] {
			t.Fatalf("per-frame %d: %d vs %d", i, got.PerFrame[i], want.PerFrame[i])
		}
	}
}

// TestExecuteOverMatchesExecute: the shared-detection reduction path
// (continuous queries) agrees with Execute when handed the detections the
// model would have produced.
func TestExecuteOverMatchesExecute(t *testing.T) {
	frames := makeFrames(25, 10)
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("oracle", oracleModel)
	q, err := Parse("SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class='car'")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	dets := make([][]detect.Detection, len(frames))
	for i, f := range frames {
		dets[i] = oracleModel(f)
	}
	got := p.ExecuteOver(frames, dets)
	if got.Count != want.Count || got.ModelFrames != want.ModelFrames {
		t.Fatalf("ExecuteOver %+v, want %+v", got, want)
	}
	for i := range want.PerFrame {
		if got.PerFrame[i] != want.PerFrame[i] {
			t.Fatalf("per-frame %d: %d vs %d", i, got.PerFrame[i], want.PerFrame[i])
		}
	}
}

// countingOracle returns the count binding equivalent to oracleModel.
func countingOracle(calls *int) CountModelFunc {
	return func(frames []*synth.Frame, class int, minScore float64) []int {
		if calls != nil {
			*calls++
		}
		out := make([]int, len(frames))
		for i, f := range frames {
			for _, d := range oracleModel(f) {
				if d.Score >= minScore && (class < 0 || d.Box.Class == class) {
					out[i]++
				}
			}
		}
		return out
	}
}

// TestCountPushdown: a COUNT plan compiled against a count-capable model
// executes the count binding (no detection stage) and matches the full
// path's result exactly — filters still run first, and the score floor
// and class predicate are pushed into the binding.
func TestCountPushdown(t *testing.T) {
	frames := makeFrames(27, 14)
	sql := "SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER odd) USING MODEL oracle WHERE class='car'"

	mkEngine := func(pushdown bool, calls *int) *Engine {
		e := NewEngine(DefaultMinScore)
		e.RegisterModel("oracle", oracleModel)
		if pushdown {
			e.RegisterCountModel("oracle", countingOracle(calls))
		}
		i := -1
		e.RegisterFilter("odd", func(*synth.Frame) bool { i++; return i%2 == 1 })
		return e
	}

	want, err := mkEngine(false, nil).Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e := mkEngine(true, &calls)
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := "scan(bdd) -> filter(odd) -> model(oracle, count-pushdown) -> where(class='car') -> min_score(0.30) -> count"; p.Explain() != want {
		t.Fatalf("Explain:\n got  %s\n want %s", p.Explain(), want)
	}
	got, err := p.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("count binding ran %d times, want 1", calls)
	}
	if got.Count != want.Count || got.ModelFrames != want.ModelFrames || got.FramesFiltered != want.FramesFiltered {
		t.Fatalf("pushdown result %+v, want %+v", got, want)
	}
	for i := range want.PerFrame {
		if got.PerFrame[i] != want.PerFrame[i] {
			t.Fatalf("per-frame %d: %d vs %d", i, got.PerFrame[i], want.PerFrame[i])
		}
	}
	if got.Detections != nil {
		t.Fatal("COUNT pushdown must not materialise detections")
	}

	// Non-COUNT projections must ignore the count binding.
	q2, err := Parse("SELECT detections FROM bdd USING MODEL oracle")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(q2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p2.Explain(), "count-pushdown") {
		t.Fatalf("SELECT detections plan used the count binding: %s", p2.Explain())
	}
	res2, err := p2.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Detections == nil {
		t.Fatal("SELECT detections should materialise boxes")
	}

	// A count binding alone never makes an unregistered name valid.
	e2 := NewEngine(DefaultMinScore)
	e2.RegisterCountModel("ghost", countingOracle(nil))
	q3, _ := Parse("SELECT COUNT(detections) FROM bdd USING MODEL ghost")
	if _, err := e2.Prepare(q3); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("count-only binding should stay unknown, got %v", err)
	}
}

// TestCountPushdownBadBinding: a count binding returning the wrong shape
// is a typed execution error, not a panic or silent truncation.
func TestCountPushdownBadBinding(t *testing.T) {
	frames := makeFrames(28, 4)
	e := NewEngine(DefaultMinScore)
	e.RegisterModel("oracle", oracleModel)
	e.RegisterCountModel("oracle", func(fs []*synth.Frame, class int, minScore float64) []int {
		return make([]int, len(fs)-1)
	})
	q, _ := Parse("SELECT COUNT(detections) FROM bdd USING MODEL oracle")
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), frames); err == nil || !strings.Contains(err.Error(), "count model") {
		t.Fatalf("short count result should error, got %v", err)
	}
}

// TestFilterOnlyPlan: a query with no model is a pure filter scan.
func TestFilterOnlyPlan(t *testing.T) {
	frames := makeFrames(26, 8)
	e := NewEngine(DefaultMinScore)
	i := -1
	e.RegisterFilter("odd", func(*synth.Frame) bool { i++; return i%2 == 1 })
	res, err := e.Run(context.Background(), "SELECT * FROM bdd USING FILTER odd", frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesScanned != 8 || res.FramesFiltered != 4 || res.ModelFrames != 0 || res.Count != 0 {
		t.Fatalf("filter-only result wrong: %+v", res)
	}
}
