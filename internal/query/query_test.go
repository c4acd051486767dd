package query

import (
	"context"
	"math"
	"strings"
	"testing"

	"odin/internal/detect"
	"odin/internal/synth"
)

func TestLexBasic(t *testing.T) {
	toks, err := Lex("SELECT COUNT(detections) FROM bdd WHERE class='car'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokKeyword, TokLParen, TokIdent, TokRParen,
		TokKeyword, TokIdent, TokKeyword, TokIdent, TokEquals, TokString, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count %d, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d kind %v, want %v (%q)", i, toks[i].Kind, k, toks[i].Text)
		}
	}
	if toks[10].Text != "car" {
		t.Fatalf("string token %q", toks[10].Text)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Fatal("bad character should error")
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex("select count(x) from t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "SELECT" {
		t.Fatalf("lowercase keyword not recognised: %+v", toks[0])
	}
}

func TestParseFlatQuery(t *testing.T) {
	q, err := Parse("SELECT COUNT(detections) FROM bdd USING MODEL yolo_specialized WHERE class='car'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != SelectCount || q.Table != "bdd" || q.UseModel != "yolo_specialized" {
		t.Fatalf("parsed query wrong: %+v", q)
	}
	if q.Where == nil || q.Where.Value != "car" {
		t.Fatalf("predicate wrong: %+v", q.Where)
	}
}

func TestParseNestedQueryWithFilter(t *testing.T) {
	sql := `SELECT COUNT(detections)
	FROM (SELECT detections
	      FROM (SELECT * FROM bdd USING FILTER car_filter WHERE class=1))
	USING MODEL yolo_specialized
	WHERE class='car'`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Sub == nil || q.Sub.Sub == nil {
		t.Fatal("nesting not parsed")
	}
	inner := q.Sub.Sub
	if inner.Table != "bdd" || inner.UseFilter != "car_filter" {
		t.Fatalf("inner query wrong: %+v", inner)
	}
	if q.UseModel != "yolo_specialized" || q.Where.Value != "car" {
		t.Fatalf("outer query wrong: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM bdd",
		"SELECT COUNT detections FROM bdd",
		"SELECT COUNT(detections) USING MODEL m",
		"SELECT COUNT(detections) FROM (SELECT * FROM bdd",
		"SELECT COUNT(detections) FROM bdd USING TURBO x",
		"SELECT COUNT(detections) FROM bdd WHERE class",
		"SELECT COUNT(detections) FROM bdd extra garbage",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("expected parse error for %q", sql)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	sql := "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE class='car'"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip mismatch: %q vs %q", q.String(), q2.String())
	}
}

// oracleModel returns ground-truth boxes as perfect detections.
func oracleModel(f *synth.Frame) []detect.Detection {
	out := make([]detect.Detection, len(f.Boxes))
	for i, b := range f.Boxes {
		out[i] = detect.Detection{Box: b, Score: 0.99}
	}
	return out
}

func makeFrames(seed uint64, n int) []*synth.Frame {
	gen := synth.NewSceneGen(seed, synth.DefaultSceneConfig())
	return gen.Dataset(synth.DayData, n)
}

func TestEngineCountWithOracle(t *testing.T) {
	frames := makeFrames(1, 20)
	e := NewEngine()
	e.RegisterModel("oracle", oracleModel)
	res, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class='car'", frames)
	if err != nil {
		t.Fatal(err)
	}
	truth := TrueCounts(frames, synth.ClassCar)
	want := 0
	for _, c := range truth {
		want += c
	}
	if res.Count != want {
		t.Fatalf("count %d, want %d", res.Count, want)
	}
	if acc := QueryAccuracy(res.PerFrame, truth); math.Abs(acc-1) > 1e-9 {
		t.Fatalf("oracle accuracy %v, want 1", acc)
	}
	if res.ModelFrames != 20 || res.FramesFiltered != 0 {
		t.Fatalf("stage counts wrong: %+v", res)
	}
}

func TestEngineNumericClassPredicate(t *testing.T) {
	frames := makeFrames(2, 10)
	e := NewEngine()
	e.RegisterModel("oracle", oracleModel)
	byName, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class='truck'", frames)
	if err != nil {
		t.Fatal(err)
	}
	byID, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class=1", frames)
	if err != nil {
		t.Fatal(err)
	}
	if byName.Count != byID.Count {
		t.Fatalf("name (%d) and id (%d) predicates disagree", byName.Count, byID.Count)
	}
}

func TestEngineFilterStage(t *testing.T) {
	frames := makeFrames(3, 30)
	e := NewEngine()
	e.RegisterModel("oracle", oracleModel)
	// A filter that drops every other frame.
	i := 0
	e.RegisterFilter("alternating", func(f *synth.Frame) bool {
		i++
		return i%2 == 0
	})
	sql := `SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER alternating) USING MODEL oracle WHERE class='car'`
	res, err := e.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesFiltered != 15 || res.ModelFrames != 15 {
		t.Fatalf("filter stage wrong: %+v", res)
	}
	if math.Abs(res.DataReduction()-0.5) > 1e-9 {
		t.Fatalf("reduction %v, want 0.5", res.DataReduction())
	}
}

func TestEngineUnknownNames(t *testing.T) {
	frames := makeFrames(4, 2)
	e := NewEngine()
	if _, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL nope WHERE class='car'", frames); err == nil {
		t.Fatal("unknown model should error")
	}
	e.RegisterModel("m", oracleModel)
	if _, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER nope) USING MODEL m", frames); err == nil {
		t.Fatal("unknown filter should error")
	}
	if _, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE color='red'", frames); err == nil {
		t.Fatal("unsupported predicate field should error")
	}
	if _, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL m WHERE class='dragon'", frames); err == nil {
		t.Fatal("unknown class should error")
	}
}

func TestEngineScoreThreshold(t *testing.T) {
	frames := makeFrames(5, 5)
	lowScore := func(f *synth.Frame) []detect.Detection {
		out := oracleModel(f)
		for i := range out {
			out[i].Score = 0.1
		}
		return out
	}
	e := NewEngine()
	e.SetMinScore(0.3)
	e.RegisterModel("weak", lowScore)
	res, err := e.Run(context.Background(), "SELECT COUNT(detections) FROM bdd USING MODEL weak WHERE class='car'", frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("below-threshold detections must not count: %d", res.Count)
	}
}

func TestQueryAccuracyMetric(t *testing.T) {
	if acc := QueryAccuracy([]int{3, 0, 2}, []int{3, 0, 4}); math.Abs(acc-(1+1+0.5)/3) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
	if QueryAccuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	QueryAccuracy([]int{1}, []int{1, 2})
}

func TestTrueCounts(t *testing.T) {
	frames := makeFrames(6, 10)
	counts := TrueCounts(frames, synth.ClassCar)
	for i, f := range frames {
		want := 0
		for _, b := range f.Boxes {
			if b.Class == synth.ClassCar {
				want++
			}
		}
		if counts[i] != want {
			t.Fatalf("frame %d count %d, want %d", i, counts[i], want)
		}
	}
}

func TestFilterNetLearnsPresence(t *testing.T) {
	gen := synth.NewSceneGen(7, synth.DefaultSceneConfig())
	// Trucks appear in ~35% of frames — a learnable presence signal.
	train := gen.Dataset(synth.DayData, 250)
	test := gen.Dataset(synth.DayData, 80)

	f := NewFilterNet(synth.ClassTruck, 27, 48, 1)
	first := f.Fit(train, 1, 16)
	last := f.Fit(train, 10, 16)
	if last >= first {
		t.Fatalf("filter loss did not decrease: %v -> %v", first, last)
	}
	// Presence-classification accuracy on held-out frames.
	correct := 0
	for _, fr := range test {
		truth := false
		for _, b := range fr.Boxes {
			truth = truth || b.Class == synth.ClassTruck
		}
		if f.Pass(fr) == truth {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.6 {
		t.Fatalf("filter accuracy too low: %v", acc)
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	sql := "  SELECT\n\tCOUNT( detections )\nFROM   bdd  USING  MODEL  m  WHERE  class = 'car'  "
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "COUNT(detections)") {
		t.Fatalf("parse lost structure: %s", q.String())
	}
}

// TestBatchModelMatchesPerFrame pins the batch dispatch path: a batch
// binding must see exactly the live (unfiltered) frames, its results must
// scatter back to input positions, and it must take precedence over a
// per-frame binding of the same name.
func TestBatchModelMatchesPerFrame(t *testing.T) {
	frames := makeFrames(3, 24)
	perFrame := NewEngine()
	perFrame.RegisterModel("oracle", oracleModel)
	batch := NewEngine()
	// Shadowed per-frame binding returns garbage; batch must win.
	batch.RegisterModel("oracle", func(f *synth.Frame) []detect.Detection { return nil })
	var sawBatch int
	batch.RegisterBatchModel("oracle", func(fs []*synth.Frame) [][]detect.Detection {
		sawBatch = len(fs)
		out := make([][]detect.Detection, len(fs))
		for i, f := range fs {
			out[i] = oracleModel(f)
		}
		return out
	})
	batch.RegisterFilter("alternating", func(f *synth.Frame) bool { return true })
	perFrame.RegisterFilter("alternating", func(f *synth.Frame) bool { return true })

	sql := "SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class='car'"
	want, err := perFrame.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batch.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	if sawBatch != len(frames) {
		t.Fatalf("batch model saw %d frames, want %d", sawBatch, len(frames))
	}
	if got.Count != want.Count || got.ModelFrames != want.ModelFrames {
		t.Fatalf("batch result %+v, want %+v", got, want)
	}
	for i := range want.PerFrame {
		if got.PerFrame[i] != want.PerFrame[i] {
			t.Fatalf("per-frame count %d differs: %d vs %d", i, got.PerFrame[i], want.PerFrame[i])
		}
	}
}

// TestBatchModelSeesOnlyLiveFrames: filtered-out frames must not reach the
// batch model, and their slots must report zero.
func TestBatchModelSeesOnlyLiveFrames(t *testing.T) {
	frames := makeFrames(4, 10)
	e := NewEngine()
	i := -1
	e.RegisterFilter("odd", func(f *synth.Frame) bool { i++; return i%2 == 1 })
	e.RegisterBatchModel("oracle", func(fs []*synth.Frame) [][]detect.Detection {
		if len(fs) != 5 {
			t.Fatalf("batch model saw %d frames, want 5", len(fs))
		}
		out := make([][]detect.Detection, len(fs))
		for k, f := range fs {
			out[k] = oracleModel(f)
		}
		return out
	})
	sql := "SELECT COUNT(detections) FROM (SELECT * FROM bdd USING FILTER odd) USING MODEL oracle WHERE class='car'"
	res, err := e.Run(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelFrames != 5 || res.FramesFiltered != 5 {
		t.Fatalf("model frames %d filtered %d, want 5/5", res.ModelFrames, res.FramesFiltered)
	}
	for k := 0; k < len(frames); k += 2 {
		if res.PerFrame[k] != 0 {
			t.Fatalf("filtered frame %d reported %d detections", k, res.PerFrame[k])
		}
	}
}

// TestRunCancelledContext: a cancelled context aborts execution with the
// context's error, for both per-frame and batch bindings.
func TestRunCancelledContext(t *testing.T) {
	frames := makeFrames(5, 8)
	e := NewEngine()
	e.RegisterModel("oracle", oracleModel)
	e.RegisterBatchModel("batch", func(fs []*synth.Frame) [][]detect.Detection {
		t.Fatal("batch model must not run under a cancelled context")
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sql := range []string{
		"SELECT COUNT(detections) FROM bdd USING MODEL oracle WHERE class='car'",
		"SELECT COUNT(detections) FROM bdd USING MODEL batch WHERE class='car'",
	} {
		if _, err := e.Run(ctx, sql, frames); err != context.Canceled {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	}
}
