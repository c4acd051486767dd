package exp

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"odin/internal/detect"
)

// tinyContext returns a context with minimal budgets for unit tests.
func tinyContext() *Context {
	c := NewContext(Quick)
	c.P = Params{
		TrainFrames: 60, TrainEpochs: 3, LiteEpochs: 2, TestFrames: 20,
		BootFrames: 60, DAGANEpochs: 1,
		T1TrainPerClass: 10, T1TestInliers: 20, T1GenEpochs: 1,
		Table2PerSubset: 150, Fig9PhaseLen: 120, Fig9Window: 60,
		Table6Frames: 30, FilterEpochs: 1,
	}
	return c
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"": Quick, "quick": Quick, "Full": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale should error")
	}
}

func TestParamsScalesOrdered(t *testing.T) {
	q, f := ParamsFor(Quick), ParamsFor(Full)
	if f.TrainFrames <= q.TrainFrames || f.Fig9PhaseLen <= q.Fig9PhaseLen {
		t.Fatal("full scale must be larger than quick")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "A", "B")
	tb.Add("x", 0.5)
	tb.Add("longer-cell", 1)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer-cell") {
		t.Fatalf("table output wrong:\n%s", out)
	}
	if !strings.Contains(out, "0.5000") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.25) != "25%" {
		t.Fatalf("Pct: %s", Pct(0.25))
	}
}

func TestContextCachesModels(t *testing.T) {
	c := tinyContext()
	a := c.Baseline()
	b := c.Baseline()
	if a != b {
		t.Fatal("baseline should be cached")
	}
	s1 := c.Specialized(1)
	s2 := c.Specialized(1)
	if s1 != s2 {
		t.Fatal("specialist should be cached")
	}
	if len(c.TestSet(0)) != c.P.TestFrames {
		t.Fatal("test set size")
	}
}

func TestRunTable4Shape(t *testing.T) {
	c := tinyContext()
	var buf bytes.Buffer
	r := RunTable4(c, &buf)
	if len(r.Costs) != 3 || len(r.MeasuredGo) != 3 {
		t.Fatalf("table4 result incomplete: %+v", r)
	}
	yolo := r.Costs[detect.KindYOLO]
	spec := r.Costs[detect.KindSpecialized]
	if yolo.FPS >= spec.FPS || yolo.SizeMB <= spec.SizeMB {
		t.Fatal("cost ordering violated")
	}
	if !strings.Contains(buf.String(), "Table 4") {
		t.Fatal("table not rendered")
	}
}

func TestRunFig4Shape(t *testing.T) {
	c := tinyContext()
	r := RunFig4(c, io.Discard)
	if r.Band.Lo < 0 || r.Band.Hi > 1 || r.Band.Lo >= r.Band.Hi {
		t.Fatalf("band invalid: %v", r.Band)
	}
	if r.InBand < 0.5 {
		t.Fatalf("∆=0.75 band should hold most mass, got %v", r.InBand)
	}
}

func TestRunFig5Shape(t *testing.T) {
	c := tinyContext()
	c.P.T1GenEpochs = 5
	r := RunFig5(c, io.Discard)
	if r.OutlierErr <= 0 || r.InlierErr <= 0 {
		t.Fatal("reconstruction errors must be positive")
	}
	if r.OutlierErr < r.InlierErr {
		t.Fatalf("unseen digits should reconstruct worse: in=%v out=%v", r.InlierErr, r.OutlierErr)
	}
}

// TestRunFig2Shape: Figure 2 trains the AE, the AAE and the DA-GAN side by
// side and renders one row each, every cycle and reconstruction error
// finite and positive.
func TestRunFig2Shape(t *testing.T) {
	c := tinyContext()
	var buf bytes.Buffer
	r := RunFig2(c, &buf)
	for _, v := range []float64{r.AECycle, r.AAECycle, r.DGCycle, r.AERecon, r.AAERecon, r.DGRecon} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("figure 2 error not finite and positive: %+v", r)
		}
	}
	for _, row := range []string{"Standard AE", "Adversarial AE", "DA-GAN"} {
		if !strings.Contains(buf.String(), row) {
			t.Fatalf("figure 2 has no %q row:\n%s", row, buf.String())
		}
	}
}

func TestFig9StreamSchedule(t *testing.T) {
	c := tinyContext()
	stream := fig9Stream(c, 5)
	if len(stream) != 4*c.P.Fig9PhaseLen {
		t.Fatalf("stream length %d", len(stream))
	}
	// Phase 1 must be pure night.
	for _, f := range stream[:c.P.Fig9PhaseLen] {
		if f.Domain.Time.String() != "night" {
			t.Fatalf("phase 1 should be night-only, got %v", f.Domain)
		}
	}
	// Later phases include day.
	day := false
	for _, f := range stream[c.P.Fig9PhaseLen:] {
		if f.Domain.Time.String() == "day" {
			day = true
			break
		}
	}
	if !day {
		t.Fatal("later phases should include day frames")
	}
}

func TestAblationBands(t *testing.T) {
	c := tinyContext()
	r := RunAblationBands(c, io.Discard)
	if len(r.Rows) != 9 {
		t.Fatalf("expected 9 sweep rows, got %d", len(r.Rows))
	}
	// The default configuration (∆=0.75, margin=0.5) must find exactly the
	// two concepts and detect the second one.
	for _, row := range r.Rows {
		if row.Delta == 0.75 && row.TailMargin == 0.5 {
			if row.Clusters != 2 {
				t.Fatalf("default config found %d clusters, want 2", row.Clusters)
			}
			if row.DriftAt < 0 {
				t.Fatal("default config missed the second concept")
			}
		}
	}
	// The tail margin must reduce temp-cluster pollution vs no margin at
	// the same ∆.
	var noMargin, withMargin int
	for _, row := range r.Rows {
		if row.Delta == 0.75 {
			switch row.TailMargin {
			case 0:
				noMargin = row.Outliers
			case 0.5:
				withMargin = row.Outliers
			}
		}
	}
	if withMargin >= noMargin {
		t.Fatalf("tail margin should reduce temp routing: %d vs %d", withMargin, noMargin)
	}
}
