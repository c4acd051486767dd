package odin

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"odin/internal/core"
)

// obsServer builds a bootstrapped server with the observability layer on,
// plus any extra options.
func obsServer(t *testing.T, seed uint64, extra ...Option) *Server {
	t.Helper()
	return qosServer(t, seed, append([]Option{WithObservability(true)}, extra...)...)
}

// goldenFamilies is every metric family the facade registers, with its
// exposition type. registerServerMetrics registers all of them up front
// (subsystem absent → reads zero), so the set is identical on every server
// built WithObservability — a new family must be added here to ship.
var goldenFamilies = map[string]string{
	"odin_frames_total":                   "counter",
	"odin_outliers_total":                 "counter",
	"odin_drift_events_total":             "counter",
	"odin_dropped_frames_total":           "counter",
	"odin_sim_gpu_seconds_total":          "counter",
	"odin_fidelity_frames_total":          "counter",
	"odin_trainer_jobs_total":             "counter",
	"odin_registry_lookups_total":         "counter",
	"odin_registry_published_total":       "counter",
	"odin_registry_evicted_total":         "counter",
	"odin_dispatch_batches_total":         "counter",
	"odin_dispatch_windows_total":         "counter",
	"odin_dispatch_frames_total":          "counter",
	"odin_dispatch_partial_flushes_total": "counter",
	"odin_events_total":                   "counter",
	"odin_qos_dropped_frames_total":       "counter",
	"odin_qos_rejected_frames_total":      "counter",
	"odin_stage_frames_total":             "counter",
	"odin_model_generation":               "gauge",
	"odin_resident_models":                "gauge",
	"odin_clusters":                       "gauge",
	"odin_pending_recoveries":             "gauge",
	"odin_model_memory_mb":                "gauge",
	"odin_registry_models":                "gauge",
	"odin_registry_capacity":              "gauge",
	"odin_dispatch_max_merge":             "gauge",
	"odin_dispatch_queued_windows":        "gauge",
	"odin_dispatch_queued_frames":         "gauge",
	"odin_stage_seconds":                  "histogram",
	"odin_dispatch_merge_windows":         "histogram",
	"odin_train_build_seconds":            "histogram",
}

// scrape renders the server's metrics page and returns it as a string.
func scrape(t *testing.T, srv *Server) string {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.String()
}

// metricValue extracts one un-labeled sample's value from an exposition
// page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample for %s", name)
	return 0
}

// TestObsMetricsGoldenFamilies pins the exposition format: every golden
// family is present with the right TYPE, paired with a HELP line, carries
// at least one sample, and no family outside the golden set appears.
func TestObsMetricsGoldenFamilies(t *testing.T) {
	srv := obsServer(t, 7)
	processAll(t, srv, driftStream(srv, 40), nil)

	page := scrape(t, srv)
	types := map[string]string{}
	helps := map[string]bool{}
	samples := map[string]int{}
	for _, line := range strings.Split(page, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if prev, dup := types[fields[2]]; dup {
				t.Fatalf("family %s declared twice (%s, %s)", fields[2], prev, fields[3])
			}
			types[fields[2]] = fields[3]
		case strings.HasPrefix(line, "# HELP "):
			helps[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			// _bucket/_sum/_count samples belong to their histogram family.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
					name = base
					break
				}
			}
			samples[name]++
		}
	}

	for fam, typ := range goldenFamilies {
		if types[fam] != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, types[fam], typ)
		}
		if !helps[fam] {
			t.Errorf("family %s: no HELP line", fam)
		}
		if samples[fam] == 0 {
			t.Errorf("family %s: no samples", fam)
		}
	}
	for fam := range types {
		if _, ok := goldenFamilies[fam]; !ok {
			t.Errorf("family %s not in the golden set — add it to goldenFamilies", fam)
		}
	}

	// Spot-check the scrape against the authoritative ledgers.
	stats := srv.Stats()
	if got := metricValue(t, page, "odin_frames_total"); got != float64(stats.Frames) {
		t.Errorf("odin_frames_total %v, want %d", got, stats.Frames)
	}
	if got := metricValue(t, page, "odin_drift_events_total"); got != float64(stats.DriftEvents) {
		t.Errorf("odin_drift_events_total %v, want %d", got, stats.DriftEvents)
	}
}

// TestObsScrapeReadsOneSnapshot: one scrape takes the pipeline lock once,
// however many series show the pipeline's telemetry, and the series it
// shows are that one snapshot.
func TestObsScrapeReadsOneSnapshot(t *testing.T) {
	srv := obsServer(t, 7)
	processAll(t, srv, driftStream(srv, 20), nil)
	reads := 0
	defer func(read func(*core.Odin) core.Telemetry) { pipelineStats = read }(pipelineStats)
	pipelineStats = func(o *core.Odin) core.Telemetry {
		if o == srv.pipeline {
			reads++
		}
		return o.Stats()
	}
	page := scrape(t, srv)
	if reads != 1 {
		t.Fatalf("one scrape read the pipeline's telemetry %d times, want 1", reads)
	}
	stats := srv.Stats()
	for name, want := range map[string]float64{
		"odin_frames_total":     float64(stats.Frames),
		"odin_outliers_total":   float64(stats.Outliers),
		"odin_clusters":         float64(stats.NumClusters),
		"odin_model_memory_mb":  stats.MemoryMB,
		"odin_model_generation": float64(stats.ModelGen),
	} {
		if got := metricValue(t, page, name); got != want {
			t.Errorf("%s %v, want %v", name, got, want)
		}
	}
}

// TestObsDisabledFacade pins the disabled contract: a server built without
// WithObservability reports disabled, refuses scrapes with the sentinel
// error, and returns no events.
func TestObsDisabledFacade(t *testing.T) {
	srv := qosServer(t, 13)
	if srv.ObservabilityEnabled() {
		t.Fatal("observability should default off")
	}
	if err := srv.WriteMetrics(io.Discard); !errors.Is(err, ErrObservabilityDisabled) {
		t.Fatalf("WriteMetrics: %v, want ErrObservabilityDisabled", err)
	}
	if evs := srv.RecentEvents(0); evs != nil {
		t.Fatalf("RecentEvents on disabled server: %v", evs)
	}
	if !obsServer(t, 13).ObservabilityEnabled() {
		t.Fatal("WithObservability(true) not reflected by ObservabilityEnabled")
	}
}

// TestObsRecentEventsSeq checks the lifecycle ring after a drift stream:
// events present, sequence numbers strictly increasing, drift among them,
// and RecentEvents(n) returns the tail.
func TestObsRecentEventsSeq(t *testing.T) {
	srv := obsServer(t, 17)
	processAll(t, srv, driftStream(srv, 40), nil)
	evs := srv.RecentEvents(0)
	if len(evs) == 0 {
		t.Fatal("drift stream produced no lifecycle events")
	}
	sawDrift := false
	for i, e := range evs {
		if i > 0 && e.Seq <= evs[i-1].Seq {
			t.Fatalf("event %d: seq %d after %d", i, e.Seq, evs[i-1].Seq)
		}
		if e.Kind == EvDrift {
			sawDrift = true
		}
	}
	if srv.Stats().DriftEvents > 0 && !sawDrift {
		t.Fatal("stats count drift events but the ring has none")
	}
	if tail := srv.RecentEvents(2); len(evs) >= 2 {
		if len(tail) != 2 || tail[1].Seq != evs[len(evs)-1].Seq {
			t.Fatalf("RecentEvents(2) = %v, want the last two of %d", tail, len(evs))
		}
	}
}

// TestObsStreamAllocFree is the stream-level half of TestHotPathAllocFree:
// a steady night stream through Stream.Process adds under one allocation a
// frame with observability on. It counts Mallocs deltas because
// testing.AllocsPerRun pins GOMAXPROCS to 1, and interleaves the arms'
// reps.
func TestObsStreamAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomises sync.Pool reuse, so alloc counts mean nothing under it")
	}
	const seed, n = 77, 120
	allocs := func(srv *Server, frames []*Frame) float64 {
		st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "steady"})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, f := range frames {
			if _, err := st.Process(context.Background(), f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(len(frames))
	}
	off, on := qosServer(t, seed), obsServer(t, seed)
	offFrames, onFrames := off.GenerateFrames(NightData, n), on.GenerateFrames(NightData, n)
	// Leaving the full-data bootstrap for night drifts and recovers within
	// the first passes, and a pass that does allocates far more: one pass
	// goes unmeasured and the best of the next three is the steady state.
	allocs(off, offFrames)
	allocs(on, onFrames)
	offBest, onBest := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		offBest = min(offBest, allocs(off, offFrames))
		onBest = min(onBest, allocs(on, onFrames))
	}
	if added := onBest - offBest; added >= 1 {
		t.Fatalf("observability adds %.2f allocs/frame (%.2f on, %.2f off), want < 1", added, onBest, offBest)
	}
}

// TestObsDropLedgerConsistency is the cross-layer accounting contract: at
// quiescence, the per-stream QoS drop counters, the server-level
// Stats().Dropped ledger, and both exported drop metrics all agree.
func TestObsDropLedgerConsistency(t *testing.T) {
	srv := obsServer(t, 5, WithMaxQueue(2), WithDropPolicy(DropNewest))
	var streams []*Stream
	dropsSeen := 0
	for _, name := range []string{"cam0", "cam1"} {
		frames := srv.GenerateFrames(DayData, 48)
		st, err := srv.OpenStream(context.Background(),
			StreamOptions{Name: name, MaxBatch: 4, Buffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		streams = append(streams, st)
		for r := range st.Run(context.Background(), feedAll(frames)) {
			if r.Dropped {
				dropsSeen++
			}
			time.Sleep(2 * time.Millisecond) // stall so the queue overflows
		}
	}
	if dropsSeen == 0 {
		t.Fatal("stalled consumers never overflowed the 2-frame queues")
	}

	var sum uint64
	for _, st := range streams {
		sum += st.QoS().Dropped
	}
	if sum != uint64(dropsSeen) {
		t.Fatalf("stream QoS counters sum to %d, drop markers say %d", sum, dropsSeen)
	}
	if got := srv.Stats().Dropped; uint64(got) != sum {
		t.Fatalf("Stats().Dropped = %d, stream QoS counters sum to %d", got, sum)
	}
	page := scrape(t, srv)
	if got := metricValue(t, page, "odin_dropped_frames_total"); got != float64(sum) {
		t.Fatalf("odin_dropped_frames_total %v, want %d", got, sum)
	}
	if got := metricValue(t, page, "odin_qos_dropped_frames_total"); got != float64(sum) {
		t.Fatalf("odin_qos_dropped_frames_total %v, want %d", got, sum)
	}
}

// TestObsScrapeRace hammers the read-side facade (metric scrapes and
// event-ring reads) while two sharded Run sessions process drifting
// streams — the -race gate for the registry's lock discipline.
func TestObsScrapeRace(t *testing.T) {
	srv := obsServer(t, 31)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, name := range []string{"a", "b"} {
		frames := driftStream(srv, 30)
		st, err := srv.OpenStream(context.Background(),
			StreamOptions{Name: name, Workers: 4, MaxBatch: 8})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			for range st.Run(context.Background(), feedAll(frames)) {
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	for {
		select {
		case <-done:
			return
		default:
			if err := srv.WriteMetrics(io.Discard); err != nil {
				t.Errorf("WriteMetrics under load: %v", err)
				return
			}
			srv.RecentEvents(16)
		}
	}
}
