package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same series.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registering a counter returned a new series")
	}
	// Nil receivers are no-ops.
	var nc *Counter
	nc.Inc()
	nc.Add(1)
	if nc.Value() != 0 {
		t.Fatal("nil metrics should read zero")
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.Sum(); math.Abs(got-116.7) > 1e-9 {
		t.Fatalf("sum = %v, want 116.7", got)
	}
	var nh *Histogram
	nh.Observe(1)
	if nh.Count() != 0 {
		t.Fatal("nil histogram should read zero")
	}
	if (&Histogram{}).Sum() != 0 {
		t.Fatal("zero sum expected")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("odin_test_total", "A test counter.", Label{Key: "kind", Value: "b"})
	c.Add(3)
	r.Counter("odin_test_total", "A test counter.", Label{Key: "kind", Value: "a"}).Inc()
	r.GaugeFunc("odin_test_fn", "A callback gauge.", func() float64 { return 9 })
	h := r.Histogram("odin_test_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP odin_test_fn A callback gauge.
# TYPE odin_test_fn gauge
odin_test_fn 9
# HELP odin_test_seconds A histogram.
# TYPE odin_test_seconds histogram
odin_test_seconds_bucket{le="0.1"} 1
odin_test_seconds_bucket{le="1"} 2
odin_test_seconds_bucket{le="+Inf"} 3
odin_test_seconds_sum 5.55
odin_test_seconds_count 3
# HELP odin_test_total A test counter.
# TYPE odin_test_total counter
odin_test_total{kind="a"} 1
odin_test_total{kind="b"} 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestOnScrapeRunsOncePerScrape: a hook runs once at the top of every
// scrape, before the callbacks that read what it filled, and not at all
// between scrapes.
func TestOnScrapeRunsOncePerScrape(t *testing.T) {
	r := NewRegistry()
	var hooks, snap int
	r.OnScrape(func() { hooks++; snap = 10 * hooks })
	for _, name := range []string{"odin_test_a", "odin_test_b"} {
		r.GaugeFunc(name, "Reads the snapshot.", func() float64 { return float64(snap) })
	}
	for scrape := 1; scrape <= 2; scrape++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if hooks != scrape {
			t.Fatalf("after %d scrapes the hook ran %d times", scrape, hooks)
		}
		for _, name := range []string{"odin_test_a", "odin_test_b"} {
			if want := fmt.Sprintf("%s %d\n", name, 10*scrape); !strings.Contains(b.String(), want) {
				t.Errorf("scrape %d: no line %q in\n%s", scrape, want, b.String())
			}
		}
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Append(Event{Kind: EvDrift, Cluster: i})
	}
	got := l.Recent(0)
	if len(got) != 3 || got[0].Cluster != 2 || got[2].Cluster != 4 {
		t.Fatalf("ring contents = %+v, want clusters 2..4 oldest-first", got)
	}
	if got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("seq = %d..%d, want 3..5", got[0].Seq, got[2].Seq)
	}
	if got[0].Time.IsZero() {
		t.Fatal("Append should stamp Time")
	}
	if r := l.Recent(2); len(r) != 2 || r[1].Cluster != 4 {
		t.Fatalf("Recent(2) = %+v, want last two", r)
	}
	var nl *EventLog
	nl.Append(Event{})
	if nl.Recent(1) != nil {
		t.Fatal("nil event log should be inert")
	}
}

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	t0 := o.Now()
	if !t0.IsZero() {
		t.Fatal("nil observer Now() should be the zero time")
	}
	o.Stage(StageProject, t0, 1)
	o.StageDur(StageDetect, time.Millisecond, 1)
	o.Event(EvDrift, "s", 0, 0, "")
	o.DroppedFrames(3)
	o.RejectedFrames(1)
	o.MergeWindows(2)
	o.BuildSeconds("scratch", time.Second)
	if o.Registry() != nil || o.Events() != nil {
		t.Fatal("nil observer accessors should return nil")
	}
	var tr *Tracer
	tr.Observe(StageProject, time.Second, 1)
}

func TestObserverEventCounters(t *testing.T) {
	o := New(8)
	o.Event(EvDrift, "cam-0", 2, 1, "")
	o.Event(EvDrift, "cam-1", 3, 1, "")
	o.Event(EvRecoverySwapped, "cam-0", 2, 2, "")
	o.Event("unknown_kind", "", -1, -1, "") // logged but not counted
	if got := len(o.Events().Recent(0)); got != 4 {
		t.Fatalf("event log len = %d, want 4", got)
	}
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`odin_events_total{kind="drift"} 2`,
		`odin_events_total{kind="recovery_swapped"} 1`,
		`odin_events_total{kind="checkpoint_save"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHotPathAllocFree is the unit-level half of the alloc contract (the
// root package's TestObsStreamAllocFree is the stream-level half): every
// per-frame instrumentation primitive must be allocation-free.
func TestHotPathAllocFree(t *testing.T) {
	o := New(16)
	h := NewHistogram(nil)
	c := o.Registry().Counter("alloc_test_total", "x")
	t0 := time.Now()
	cases := map[string]func(){
		"counter":   func() { c.Add(1) },
		"histogram": func() { h.Observe(0.001) },
		"tracer":    func() { o.Stage(StageProject, t0, 8) },
		"dropped":   func() { o.DroppedFrames(1) },
		"merge":     func() { o.MergeWindows(3) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the hot path, want 0", name, allocs)
		}
	}
}

// TestRegistryConcurrent hammers scrapes against concurrent metric updates
// — run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	o := New(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o.Stage(StageAdvance, time.Now().Add(-time.Millisecond), 4)
				o.Event(EvDrift, "cam", i, 1, "")
				o.DroppedFrames(1)
				o.MergeWindows(i + 1)
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := o.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		o.Events().Recent(16)
	}
	close(stop)
	wg.Wait()
}
