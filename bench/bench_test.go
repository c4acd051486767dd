package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odin"
)

// TestMain moves to the repository root, where the benchmark runs, and
// lets the test binary serve as the set-up child.
func TestMain(m *testing.M) {
	if setupChild() {
		return
	}
	if err := os.Chdir(".."); err != nil {
		fatal(err)
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// wantNames fails unless got holds exactly the listed metrics. runOne has
// already refused a name reported twice or not at all.
func wantNames(t *testing.T, workload string, want []metricSpec, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %s lists %d", workload, len(got), benchmarkFile, len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %q missing", workload, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: metric %q has unit %q, want %q", workload, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmokeEndToEnd runs the in-process workloads at tiny length on one
// shared set-up and checks that every end-to-end metric of BENCHMARK.json
// comes out exactly once. Tiny runs are too short for the drift checks to
// hold, so only the ledger is asserted.
func TestSmokeEndToEnd(t *testing.T) {
	spec := testSpec(t)
	ckpt := filepath.Join(t.TempDir(), "shared.ckpt")
	if _, err := sharedSetup(ckpt); err != nil {
		t.Fatal(err)
	}
	for _, workload := range []string{"steady_1cam", "drift_4cam", "burst_qos_4cam"} {
		r := newRun(spec, workload, 7, 1, false)
		r.ckpt, r.setupReps = ckpt, 0
		r.rep.set("setup_s", 1) // the shared part ran above, untimed
		res, err := runOne(r)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		wantNames(t, workload, spec.EndToEnd, res.Metrics)
		if res.Attempted < 100 {
			t.Errorf("%s: attempted %d operations", workload, res.Attempted)
		}
		if workload != "drift_4cam" && res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
		}
	}
}

// TestSmokePerLayer runs one traced pass, layer replay included, and
// checks every per-layer metric comes out exactly once and the stage
// shares sum to 1. It takes about 15 s; -short skips it.
func TestSmokePerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer replay takes about 15 s")
	}
	spec := testSpec(t)
	res, err := runOne(newRun(spec, "steady_1cam", 7, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, "steady_1cam", spec.PerLayer, res.Metrics)
	sum := 0.0
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "stage.") {
			sum += m.Value
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("stage shares sum to %v, want 1", sum)
	}
	if _, err := os.Stat(filepath.Join(buildDir, "trace_steady_1cam.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

func TestSpecNames(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(spec.Workloads))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, bad := range []string{"has space", "", "-leading", strings.Repeat("x", 65), "ünicode"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"lat_p95_ms", "stage.queue_wait_share", "1cam", "a-b"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q refused", good)
		}
	}
}

func TestReportRefusesDuplicatesAndGaps(t *testing.T) {
	want := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	r := newReport(want)
	r.set("a", 1)
	r.set("unlisted", 3) // belongs to the other pass: dropped
	if _, err := r.metrics(); err == nil || !strings.Contains(err.Error(), `"b" was not reported`) {
		t.Errorf("missing metric: got %v", err)
	}
	r.set("b", 2)
	if m, err := r.metrics(); err != nil || len(m) != 2 || m["b"].Unit != "ms" {
		t.Errorf("complete report: %v, %v", m, err)
	}
	r.set("a", 5)
	if _, err := r.metrics(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate metric: got %v", err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	} else if !strings.Contains(err.Error(), "999 samples") {
		t.Errorf("refusal does not give the sample count: %v", err)
	}
	if v, err := percentile(ramp(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", v, err)
	}
	if v, q, err := supportedPercentile(ramp(300)); err != nil || q != 0.95 || v != 285 {
		t.Errorf("300 samples: got p%g = %v, %v; want p95 = 285", q*100, v, err)
	}
	if _, _, err := supportedPercentile(ramp(15)); err == nil {
		t.Error("15 samples support no percentile, yet one was reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); s != (31-3.5)/13.5 {
		t.Errorf("spread = %v", s)
	}
}

// TestOpenLoopLatencyFromDueTime stalls a fake server for 60 ms. The
// frames that fell due during the stall come back quickly once it ends,
// but their latency must count from when they were due, not from when the
// server took them.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const (
		total   = 200 * time.Millisecond
		fps     = 1000.0
		stallAt = 20 // frames
		stall   = 60 * time.Millisecond
	)
	frame := &odin.Frame{}
	cam := newCamera(nil, 400, 400)
	out := make(chan odin.StreamResult)
	cam.out = out
	go func() { // the fake server: in order, instant but for one stall
		defer close(out)
		seq := 0
		for f := range cam.in {
			if seq == stallAt {
				time.Sleep(stall)
			}
			out <- odin.StreamResult{Seq: seq, Frame: f}
			seq++
		}
	}()
	t0 := time.Now()
	done := make(chan struct{})
	go func() { cam.consume(t0, nil); close(done) }()
	openLoop(t0, total, []*camera{cam},
		func(time.Duration, int) float64 { return fps },
		func(time.Duration, int, int) *odin.Frame { return frame })
	<-done

	if cam.sent != int(fps*total.Seconds()) || cam.delivered != cam.sent || cam.seqErrs != 0 {
		t.Fatalf("sent %d, delivered %d, %d sequence errors", cam.sent, cam.delivered, cam.seqErrs)
	}
	for i := 0; i < cam.sent; i++ {
		if due := time.Duration(cam.dues[i]); due%tick != 0 {
			t.Fatalf("frame %d is due at %v, not on a %v tick", i, due, tick)
		}
	}
	worst := 0.0
	for _, ms := range cam.lat.ms {
		worst = max(worst, ms)
	}
	if worst < 0.8*float64(stall.Milliseconds()) {
		t.Errorf("worst latency %.1f ms after a %v stall: latency is not taken from the due time", worst, stall)
	}
	if first := cam.lat.ms[0]; first > 20 {
		t.Errorf("first frame took %.1f ms on an idle fake server", first)
	}
}

// TestQuietQuartile: the slice a quarter of the way in from the better
// end, whichever end that is, untouched by what happens to the worse half.
func TestQuietQuartile(t *testing.T) {
	lat := []float64{9, 3, 40, 5, 4} // two slices hit by a training
	if got := quietQuartile(lat, "lower"); got != 4 {
		t.Errorf("five slices, lower is better: got %v, want the second best, 4", got)
	}
	rate := []float64{61, 40, 58, 60, 62, 35, 59, 63, 41, 57}
	if got := quietQuartile(rate, "higher"); got != 61 {
		t.Errorf("ten slices, higher is better: got %v, want the third best, 61", got)
	}
	if got := quietQuartile([]float64{7}, "lower"); got != 7 {
		t.Errorf("one slice: got %v", got)
	}
	if lat[0] != 9 {
		t.Error("quietQuartile reordered its argument")
	}
}

// TestSlowdownIsTheWindowsMedian feeds the speedometer hand-made samples:
// a window reads the median kernel time of the samples inside it over the
// reference, and a window without samples reads 1.
func TestSlowdownIsTheWindowsMedian(t *testing.T) {
	t0 := time.Now()
	s := &speedometer{}
	for i, ms := range []float64{speedRefMs, speedRefMs, speedRefMs, 0.8, 0.6, 9} {
		s.at = append(s.at, t0.Add(time.Duration(i)*time.Second))
		s.ms = append(s.ms, ms)
	}
	if got, n := s.slowdown(t0, t0.Add(3*time.Second)); got != 1 || n != 3 {
		t.Errorf("quiet window: slowdown %v over %d samples, want 1 over 3", got, n)
	}
	// 0.8, 0.6 and one preempted sample: the median ignores the outlier.
	if got, n := s.slowdown(t0.Add(3*time.Second), t0.Add(6*time.Second)); got != 0.8/speedRefMs || n != 3 {
		t.Errorf("slow window: slowdown %v over %d samples, want %v over 3", got, n, 0.8/speedRefMs)
	}
	if got, n := s.slowdown(t0.Add(time.Minute), t0.Add(time.Hour)); got != 1 || n != 0 {
		t.Errorf("empty window: slowdown %v over %d samples, want 1 over 0", got, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "fps", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{lower, steady(100), steady(105), unchanged},
		{lower, steady(100), steady(120), worse},
		{lower, steady(100), steady(80), better},
		{higher, steady(100), steady(120), better},
		{higher, steady(100), steady(85), worse},
		{higher, steady(100), steady(95), unchanged},
		// The base's own runs spread wider than the bound: no verdict.
		{lower, []float64{60, 80, 100, 120, 140}, steady(150), unresolved},
	} {
		if _, got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.m.Name, median(c.base), median(c.cur), got, c.want)
		}
	}

	spec := &benchSpec{Workloads: []workloadSpec{{Name: "w"}}, EndToEnd: []metricSpec{lower, higher}}
	set := func(lat, fps float64, failed int) *resultSet {
		return &resultSet{spec: spec, Workloads: map[string]*workloadRuns{"w": {
			Failed:   failed,
			EndToEnd: map[string][]float64{"lat": steady(lat), "fps": steady(fps)},
		}}}
	}
	var out bytes.Buffer
	if code := compareSets(spec, set(100, 100, 0), set(101, 99, 0), &out); code != 0 {
		t.Errorf("unchanged sets exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(spec, set(100, 100, 0), set(130, 100, 0), &out); code == 0 || !strings.Contains(out.String(), worse) {
		t.Errorf("a worse latency exits %d:\n%s", code, out.String())
	}
	if code := compareSets(spec, set(100, 100, 0), set(100, 100, 3), &out); code == 0 {
		t.Error("more failed operations than the base exit 0")
	}
}
