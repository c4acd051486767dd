package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"odin"
	"odin/internal/checkpoint"
	"odin/internal/serveapi"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// quickOptions is the fast bootstrap schedule the facade tests use.
func quickOptions(seed uint64) []odin.Option {
	return []odin.Option{
		odin.WithSeed(seed),
		odin.WithBootstrapFrames(80),
		odin.WithBootstrapEpochs(1),
		odin.WithBaselineEpochs(2),
	}
}

func quickServer(t *testing.T, seed uint64, extra ...odin.Option) *odin.Server {
	t.Helper()
	srv, err := odin.New(append(quickOptions(seed), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// driftFrames generates a Night→Day stream from srv's generator.
func driftFrames(srv *odin.Server, perPhase int) []*odin.Frame {
	frames := srv.GenerateFrames(odin.NightData, perPhase)
	return append(frames, srv.GenerateFrames(odin.DayData, perPhase)...)
}

func postJSON[T any](t *testing.T, client *http.Client, url string, body any) T {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", url, resp.StatusCode, raw)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: decode %q: %v", url, raw, err)
	}
	return out
}

// feedHTTP pushes frames through an HTTP stream session in batches and
// returns the fingerprints in frame order.
func feedHTTP(t *testing.T, client *http.Client, base, sessID string, frames []*odin.Frame, batch int) []string {
	t.Helper()
	fps := make([]string, 0, len(frames))
	seqBase := -1 // seqs are pipeline-global; a restored server resumes mid-sequence
	for i := 0; i < len(frames); i += batch {
		j := min(i+batch, len(frames))
		req := serveapi.FramesRequest{}
		for _, f := range frames[i:j] {
			req.Frames = append(req.Frames, serveapi.FromFrame(f))
		}
		resp := postJSON[serveapi.FramesResponse](t, client,
			base+"/v1/streams/"+sessID+"/frames", req)
		if len(resp.Results) != j-i {
			t.Fatalf("batch [%d:%d): got %d results", i, j, len(resp.Results))
		}
		for k, r := range resp.Results {
			if seqBase == -1 {
				seqBase = r.Seq
			}
			if r.Seq != seqBase+i+k {
				t.Fatalf("result %d has seq %d, want %d", i+k, r.Seq, seqBase+i+k)
			}
			fps = append(fps, r.Fingerprint)
		}
	}
	return fps
}

func openSession(t *testing.T, client *http.Client, base string, workers int) string {
	t.Helper()
	resp := postJSON[serveapi.CreateStreamResponse](t, client, base+"/v1/streams",
		serveapi.CreateStreamRequest{Name: "test", Workers: workers})
	if resp.ID == "" {
		t.Fatal("empty session id")
	}
	return resp.ID
}

// TestServeHTTPConformance is the cross-process determinism check of
// DESIGN.md §10: a replica fed the same frames over HTTP/JSON produces
// bit-identical fingerprints to an in-process stream.
func TestServeHTTPConformance(t *testing.T) {
	const seed, perPhase = 7, 50

	ref := quickServer(t, seed)
	frames := driftFrames(ref, perPhase)

	// In-process reference: sequential Process.
	st, err := ref.OpenStream(context.Background(), odin.StreamOptions{Name: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(frames))
	for i, f := range frames {
		res, err := st.Process(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Fingerprint()
	}
	st.Close()

	// HTTP replica: same seed and options, frames over the wire, sharded
	// session (workers=4) — ProcessBatch determinism extends over HTTP.
	replica := quickServer(t, seed)
	a := newApp(replica, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	sessID := openSession(t, ts.Client(), ts.URL, 4)
	got := feedHTTP(t, ts.Client(), ts.URL, sessID, frames, 16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: HTTP fingerprint %s != in-process %s", i, got[i], want[i])
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+sessID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE session = %d", resp.StatusCode)
	}

	// Replica and reference agree on aggregate state too.
	var stats serveapi.StatsResponse
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", &stats)
	if stats.Frames != ref.Stats().Frames || stats.DriftEvents != ref.Stats().DriftEvents {
		t.Fatalf("replica stats %+v diverge from reference %+v", stats, ref.Stats())
	}
}

func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: decode %q: %v", url, raw, err)
	}
}

// TestServeStatsKeys pins the /v1/stats key set: the top level and the
// trainer, registry and dispatch objects, which the benchmark harness
// reads. lite_frames, count_frames, skip_frames and dropped are omitted
// while zero, as they are here.
func TestServeStatsKeys(t *testing.T) {
	srv, err := odin.New(quickOptions(3)...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newApp(srv, nil, func() []odin.Option { return nil }, quietLogger()).handler())
	defer ts.Close()
	var doc map[string]any
	getJSON(t, ts.Client(), ts.URL+"/v1/stats", &doc)
	for obj, want := range map[string]string{
		"":         "dispatch drift_events frames full_frames memory_mb model_gen num_clusters num_models outliers pending_recoveries registry sim_time trainer",
		"trainer":  "adopted coalesced dropped failed scratch trained warm",
		"registry": "adopt_hits capacity coalesced evicted lookups misses published size warm_hits",
		"dispatch": "batches frames max_merge partial_flushes queued_frames queued_windows windows",
	} {
		m := doc
		if obj != "" {
			m, _ = doc[obj].(map[string]any)
		}
		if got := strings.Join(slices.Sorted(maps.Keys(m)), " "); got != want {
			t.Errorf("/v1/stats %q keys:\n got %s\nwant %s", obj, got, want)
		}
	}
}

// TestServeCheckpointRestoreEndpoints drives the full network warm-restart
// loop: feed, checkpoint, keep feeding, restore, and verify the replay of
// the post-checkpoint tail is bit-identical.
func TestServeCheckpointRestoreEndpoints(t *testing.T) {
	const seed, perPhase = 11, 40

	srv := quickServer(t, seed)
	frames := driftFrames(srv, perPhase)
	cut := perPhase + perPhase/2
	head, tail := frames[:cut], frames[cut:]

	store, err := checkpoint.NewDirStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	a := newApp(srv, store, func() []odin.Option { return quickOptions(seed) }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	sessID := openSession(t, client, ts.URL, 0)
	feedHTTP(t, client, ts.URL, sessID, head, 16)

	ck := postJSON[serveapi.CheckpointResponse](t, client, ts.URL+"/v1/checkpoint", struct{}{})
	if ck.Path == "" {
		t.Fatal("checkpoint returned empty path")
	}

	first := feedHTTP(t, client, ts.URL, sessID, tail, 16)

	// Restore refuses while the session is open.
	resp, err := client.Post(ts.URL+"/v1/restore", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore with open session = %d, want 409", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+sessID, nil)
	if resp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rk := postJSON[serveapi.CheckpointResponse](t, client, ts.URL+"/v1/restore", serveapi.RestoreRequest{})
	if rk.Path != ck.Path {
		t.Fatalf("restored from %s, want latest %s", rk.Path, ck.Path)
	}

	// The restored server rewound to the cut: replaying the tail matches
	// the original continuation bit-for-bit.
	sess2 := openSession(t, client, ts.URL, 4)
	second := feedHTTP(t, client, ts.URL, sess2, tail, 16)
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("tail frame %d after restore: %s != original %s", i, second[i], first[i])
		}
	}
}

// TestServeSubscribeSSE smoke-tests the standing-query window feed.
func TestServeSubscribeSSE(t *testing.T) {
	const seed, n = 3, 30

	srv := quickServer(t, seed)
	frames := srv.GenerateFrames(odin.NightData, n)

	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	pq := postJSON[serveapi.PrepareResponse](t, client, ts.URL+"/v1/prepared",
		serveapi.PrepareRequest{SQL: "SELECT COUNT(detections) FROM stream USING MODEL odin"})
	sessID := openSession(t, client, ts.URL, 0)

	resp, err := client.Get(ts.URL + "/v1/streams/" + sessID + "/subscribe?prepared=" + pq.ID + "&size=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type = %q", ct)
	}

	// Read the SSE feed concurrently with frame submission — window
	// delivery applies backpressure to the stream, so an unread
	// subscription would stall the frames POST.
	events := make(chan serveapi.WindowEvent, 8)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev serveapi.WindowEvent
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
	}()

	feedHTTP(t, client, ts.URL, sessID, frames, 10)

	for want := 0; want < 3; want++ {
		ev, ok := <-events
		if !ok {
			t.Fatalf("SSE feed ended after %d windows, want 3", want)
		}
		if ev.Window != want {
			t.Fatalf("window %d arrived as %d", want, ev.Window)
		}
		wantStart := want * 10
		if ev.StartSeq != wantStart || ev.EndSeq != wantStart+9 {
			t.Fatalf("window %d spans [%d,%d], want [%d,%d]",
				want, ev.StartSeq, ev.EndSeq, wantStart, wantStart+9)
		}
		if ev.Err != "" {
			t.Fatalf("window %d error: %s", want, ev.Err)
		}
	}
}

// TestServeEndpointErrors covers the non-happy paths.
func TestServeEndpointErrors(t *testing.T) {
	srv := quickServer(t, 5)
	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	var health serveapi.HealthResponse
	getJSON(t, client, ts.URL+"/healthz", &health)
	if !health.OK || !health.Booted {
		t.Fatalf("healthz = %+v", health)
	}

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/streams/nope/frames", `{"frames":[]}`, http.StatusNotFound},
		{"DELETE", "/v1/streams/nope", "", http.StatusNotFound},
		{"POST", "/v1/prepared/nope/execute", `{"frames":[]}`, http.StatusNotFound},
		{"POST", "/v1/prepared", `{"sql":"SELECT bogus FROM stream"}`, http.StatusBadRequest},
		{"POST", "/v1/checkpoint", "", http.StatusServiceUnavailable}, // no store
		{"POST", "/v1/restore", `{}`, http.StatusServiceUnavailable},  // no store, no path
		{"GET", "/v1/generate?subset=fog", "", http.StatusBadRequest},
		{"GET", "/v1/generate?subset=day&n=-1", "", http.StatusBadRequest},
		// One past the most frames whose JSON fits in one request body.
		{"GET", fmt.Sprintf("/v1/generate?subset=day&n=%d", maxGenerate(srv.FrameShape())+1), "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d (%s), want %d", tc.method, tc.path, resp.StatusCode, raw, tc.want)
		}
		var e serveapi.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("%s %s: error body %q not an ErrorResponse", tc.method, tc.path, raw)
		}
	}

	// Generate serves frames through the wire format.
	var gen serveapi.GenerateResponse
	getJSON(t, client, ts.URL+"/v1/generate?subset=day&n=3", &gen)
	if len(gen.Frames) != 3 {
		t.Fatalf("generate returned %d frames, want 3", len(gen.Frames))
	}
	// maxGenerate's per-frame bound holds for a real frame.
	raw, err := json.Marshal(gen.Frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if most := maxGenerate(srv.FrameShape()); len(raw) > maxBodyBytes/most {
		t.Fatalf("a frame encodes to %d bytes; %d of them overrun maxBodyBytes", len(raw), most)
	}
}

// TestServeRejectsBadFrames: a frame body that is malformed, or well formed
// but not the server's frame shape, is answered 400 on every endpoint that
// takes frames, before anything reaches the pipeline — where the first two
// bodies used to panic on the session goroutine and kill the process — and
// the session that saw it still serves the next valid batch, in order.
func TestServeRejectsBadFrames(t *testing.T) {
	srv := quickServer(t, 5)
	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	sessID := openSession(t, client, ts.URL, 2)
	pq := postJSON[serveapi.PrepareResponse](t, client, ts.URL+"/v1/prepared",
		serveapi.PrepareRequest{SQL: "SELECT COUNT(detections) FROM stream USING MODEL odin"})
	next := 0 // valid frames fed so far

	// pixel spells a frame of the server's shape whose first pixel is tok.
	pixel := func(tok string) string {
		return `{"frames":[{"c":3,"h":27,"w":48,"pix":[` + tok + strings.Repeat(",0", 3*27*48-1) + `]}]}`
	}
	bodies := map[string]string{
		"short pix":       `{"frames":[{"c":3,"h":27,"w":48,"pix":[0.1,0.2,0.3]}]}`,
		"foreign shape":   `{"frames":[{"c":1,"h":2,"w":2,"pix":[0.1,0.2,0.3,0.4]}]}`,
		"NaN":             pixel("NaN"),
		"Infinity":        pixel("Infinity"),
		"hex float":       pixel("0x1p-2"),
		"underscore":      pixel("1_0"),
		"plus sign":       pixel("+1"),
		"leading zero":    pixel("01"),
		"no integer part": pixel(".5"),
		"no fraction":     pixel("5."),
		"overflow":        pixel("1e999"),
		"truncated array": pixel("0.5")[:4000],
		"trailing bytes":  pixel("0.5") + "x",
	}
	if body := pixel("0.5"); !json.Valid([]byte(body)) {
		t.Fatalf("the template the cases are cut from is itself malformed: %.80s", body)
	}
	// want is what the 400 must say: the offending frame by position in
	// the batch, or what else is wrong with the body.
	want := map[string]string{"trailing bytes": "trailing data"}
	// The decoder's committed fuzz seeds go through the same door. None is
	// of the server's shape, so the valid ones stop at the shape check.
	seeds, err := filepath.Glob("../../internal/serveapi/testdata/fuzz/FuzzDecodeRequest/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no fuzz seeds found: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(\"...\")\n"
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(raw), "\n")[1], "[]byte("), ")")
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := "seed " + filepath.Base(path)
		bodies[name] = body
		want[name] = "decode request"
		if strings.HasPrefix(filepath.Base(path), "valid-") {
			want[name] = "this server's frames are"
		}
	}
	for name, body := range bodies {
		for _, path := range []string{
			"/v1/streams/" + sessID + "/frames",
			"/v1/prepared/" + pq.ID + "/execute",
			"/v1/query",
		} {
			if path == "/v1/query" && !strings.Contains(body, `"sql"`) && strings.HasPrefix(body, "{") {
				body = `{"sql":"SELECT COUNT(detections) FROM stream USING MODEL odin",` + body[1:]
			}
			resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			say := want[name]
			if say == "" {
				say = "frame 0"
			}
			var e serveapi.ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || !strings.Contains(e.Error, say) {
				t.Fatalf("%s: POST %s = %d %s, want 400 saying %q", name, path, resp.StatusCode, raw, say)
			}
		}
		// Same session, next valid batch: results for exactly these frames.
		got := feedHTTP(t, client, ts.URL, sessID, srv.GenerateFrames(odin.NightData, 2), 2)
		if len(got) != 2 || got[0] == "" {
			t.Fatalf("after %s: session served %v", name, got)
		}
		next += 2
	}
	if got := srv.Stats().Frames; got != next {
		t.Fatalf("server saw %d frames, want the %d valid ones", got, next)
	}

	// Past maxBodyBytes the answer is 413, whatever the endpoint decodes with.
	huge := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/streams", "/v1/streams/" + sessID + "/frames"} {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes = %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
}

// stageMetric reads odin_<name>{stage="..."} off a /metrics page.
func stageMetric(t *testing.T, page, name, stage string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("%s{stage=%q} ", name, stage)
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", prefix)
	return 0
}

// TestServeWholeRequestWindows: a posted batch reaches the Run loop as
// whole windows, not as the one or two frames a feeder goroutine had
// handed over when the loop woke (mean width was 1.34 for 4-frame posts);
// and a batch longer than the session's input buffer still comes back
// complete and in order.
func TestServeWholeRequestWindows(t *testing.T) {
	const batch, posts = 4, 50
	srv := quickServer(t, 7, odin.WithObservability(true))
	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	sess := postJSON[serveapi.CreateStreamResponse](t, client, ts.URL+"/v1/streams",
		serveapi.CreateStreamRequest{Name: "windows", Workers: 2, MaxBatch: batch})
	frames := srv.GenerateFrames(odin.NightData, batch*posts+3*sessionBuffer)
	feedHTTP(t, client, ts.URL, sess.ID, frames[:batch*posts], batch)

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	inWindows := stageMetric(t, string(page), "odin_stage_frames_total", "assembly")
	windows := stageMetric(t, string(page), "odin_stage_seconds_count", "assembly")
	if inWindows != batch*posts || inWindows/windows < 3 {
		t.Fatalf("%v frames in %v windows (mean width %.2f), want %d frames at mean width ≥ 3",
			inWindows, windows, inWindows/windows, batch*posts)
	}

	// feedHTTP checks count and seq order; the tail goes through the feeder.
	feedHTTP(t, client, ts.URL, sess.ID, frames[batch*posts:], 3*sessionBuffer)
}

// TestServeShutdownCheckpoints verifies the graceful-shutdown contract:
// shutdown closes sessions and the server, then writes a final checkpoint
// that a new process can warm-start from.
func TestServeShutdownCheckpoints(t *testing.T) {
	const seed = 9
	srv := quickServer(t, seed)
	frames := driftFrames(srv, 30)

	store, err := checkpoint.NewDirStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := newApp(srv, store, func() []odin.Option { return quickOptions(seed) }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	sessID := openSession(t, ts.Client(), ts.URL, 0)
	feedHTTP(t, ts.Client(), ts.URL, sessID, frames, 15)

	a.shutdown() // leaves the session open on purpose: shutdown closes it

	path, err := store.Latest()
	if err != nil {
		t.Fatalf("no shutdown checkpoint: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := odin.Restore(f, quickOptions(seed)...)
	if err != nil {
		t.Fatalf("restore from shutdown checkpoint: %v", err)
	}
	defer restored.Close()
	if got := restored.Stats().Frames; got != len(frames) {
		t.Fatalf("restored server saw %d frames, want %d", got, len(frames))
	}
}

// TestServeObservabilityEndpoints exercises /metrics, /v1/events and the
// pprof gate: an instrumented server exposes the Prometheus page and the
// lifecycle event ring after traffic, an uninstrumented one 404s both, and
// /debug/pprof/ exists only when opted in.
func TestServeObservabilityEndpoints(t *testing.T) {
	const seed, perPhase = 7, 50

	srv := quickServer(t, seed, odin.WithObservability(true))
	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	client := ts.Client()

	sessID := openSession(t, client, ts.URL, 2)
	feedHTTP(t, client, ts.URL, sessID, driftFrames(srv, perPhase), 10)

	// /metrics: Prometheus text exposition with the core families present
	// and the frame counter reflecting the traffic above.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	page := string(body)
	for _, want := range []string{
		"# TYPE odin_frames_total counter",
		"# TYPE odin_stage_seconds histogram",
		"# TYPE odin_events_total counter",
		"odin_fidelity_frames_total{fidelity=\"full\"}",
		"odin_stage_seconds_bucket{stage=\"project\",le=\"+Inf\"}",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("GET /metrics page missing %q", want)
		}
	}
	wantFrames := fmt.Sprintf("odin_frames_total %d", srv.Stats().Frames)
	if !strings.Contains(page, wantFrames) {
		t.Errorf("GET /metrics page missing %q", wantFrames)
	}

	// /v1/events: the Night→Day shift above must have produced drift and
	// recovery events, oldest first with monotone sequence numbers.
	var events struct {
		Events []odin.Event `json:"events"`
	}
	resp, err = client.Get(ts.URL + "/v1/events?n=64")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.Stats().DriftEvents > 0 && len(events.Events) == 0 {
		t.Fatal("drift occurred but /v1/events is empty")
	}
	kinds := make(map[string]int)
	for i, ev := range events.Events {
		kinds[ev.Kind]++
		if i > 0 && ev.Seq <= events.Events[i-1].Seq {
			t.Fatalf("event seqs not increasing: %d then %d", events.Events[i-1].Seq, ev.Seq)
		}
	}
	if srv.Stats().DriftEvents > 0 && kinds[odin.EvDrift] == 0 {
		t.Errorf("no %q events after drift; kinds: %v", odin.EvDrift, kinds)
	}

	// Bad ?n= is a 400.
	resp, err = client.Get(ts.URL + "/v1/events?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/events?n=bogus = %d, want 400", resp.StatusCode)
	}

	// pprof is opt-in: absent by default, mounted with the flag.
	resp, err = client.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}
	a.pprofOn = true
	tsProf := httptest.NewServer(a.handler())
	defer tsProf.Close()
	resp, err = tsProf.Client().Get(tsProf.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with -pprof = %d, want 200", resp.StatusCode)
	}
}

// TestServeObservabilityDisabled: a server built without WithObservability
// 404s both observability endpoints.
func TestServeObservabilityDisabled(t *testing.T) {
	srv := quickServer(t, 11)
	a := newApp(srv, nil, func() []odin.Option { return nil }, quietLogger())
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/v1/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on uninstrumented server = %d, want 404", path, resp.StatusCode)
		}
	}
}
