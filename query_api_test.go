package odin

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"odin/internal/query"
)

// oracle returns ground-truth boxes as perfect detections — a cheap,
// stateless stand-in model for query-path tests.
func oracle(f *Frame) []Detection {
	out := make([]Detection, len(f.Boxes))
	for i, b := range f.Boxes {
		out[i] = Detection{Box: b, Score: 0.99}
	}
	return out
}

func TestQueryBuilderSQL(t *testing.T) {
	q := Select(Count).
		From("cam-0").
		UsingFilter("truck_filter").
		UsingModel("odin").
		Where(Class("truck"))
	want := "SELECT COUNT(detections) FROM (SELECT * FROM cam-0 USING FILTER truck_filter) USING MODEL odin WHERE class='truck'"
	if got := q.SQL(); got != want {
		t.Fatalf("SQL render:\n got  %s\n want %s", got, want)
	}
	// Plain query, no filter level.
	q2 := Select(Detections).UsingModel("yolo").Where(ClassID(1))
	if got, want := q2.SQL(), "SELECT detections FROM stream USING MODEL yolo WHERE class='1'"; got != want {
		t.Fatalf("SQL render:\n got  %s\n want %s", got, want)
	}
}

func TestQueryBuilderConstructionErrors(t *testing.T) {
	srv := sharedServer(t)
	cases := []struct {
		name string
		q    *Query
	}{
		{"bad projection", Select(Projection(99))},
		{"empty model", Select(Count).UsingModel("")},
		{"empty filter", Select(Count).UsingFilter("")},
		{"empty source", Select(Count).From("")},
		{"unparseable source", Select(Count).From("cam 0").UsingModel("odin")},
		{"unparseable model", Select(Count).UsingModel("my model")},
		{"unparseable filter", Select(Count).UsingModel("odin").UsingFilter("f'")},
		{"keyword source", Select(Count).From("filter").UsingModel("odin")},
		{"keyword model", Select(Count).UsingModel("count")},
		{"conflicting models", Select(Count).UsingModel("odin").UsingModel("yolo")},
		{"bad min score", Select(Count).UsingModel("odin").WithMinScore(1.5)},
	}
	// Every word the lexer reserves, in any case, as a source, filter or
	// model name: the builder must refuse what would render unparseable SQL.
	for _, kw := range query.Keywords() {
		for _, name := range []string{kw, strings.ToLower(kw), kw[:1] + strings.ToLower(kw[1:])} {
			cases = append(cases, []struct {
				name string
				q    *Query
			}{
				{"keyword source " + name, Select(Count).From(name).UsingModel("odin")},
				{"keyword filter " + name, Select(Count).UsingModel("odin").UsingFilter(name)},
				{"keyword model " + name, Select(Count).UsingModel(name)},
			}...)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := srv.Prepare(c.q); err == nil {
				t.Fatal("Prepare should surface the construction error")
			}
		})
	}
}

// TestPrepareTypedErrors: unknown references fail at Prepare with the
// exported sentinels.
func TestPrepareTypedErrors(t *testing.T) {
	srv := sharedServer(t)
	if _, err := srv.Prepare(Select(Count).UsingModel("ghost")); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := srv.Prepare(Select(Count).UsingModel("odin").UsingFilter("ghost")); !errors.Is(err, ErrUnknownFilter) {
		t.Fatalf("unknown filter: %v", err)
	}
	if _, err := srv.Prepare(Select(Count).UsingModel("odin").Where(Class("dragon"))); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
	if _, err := srv.PrepareSQL("SELECT COUNT(detections) FROM s USING MODEL odin WHERE weather='rain'"); !errors.Is(err, ErrBadPredicate) {
		t.Fatalf("bad predicate: %v", err)
	}
	if _, err := srv.PrepareSQL("SELECT COUNT(detections) FROM (SELECT detections FROM s USING MODEL odin) USING MODEL yolo"); !errors.Is(err, ErrMultipleModels) {
		t.Fatalf("multiple models: %v", err)
	}
}

// TestBuilderSQLRoundTrip: every statement the builder renders parses and
// compiles back to the same plan — including hyphenated stream names.
func TestBuilderSQLRoundTrip(t *testing.T) {
	srv := sharedServer(t)
	srv.RegisterFilter("rt_filter", func(*Frame) bool { return true })
	q := Select(Count).
		From("cam-0").
		UsingFilter("rt_filter").
		UsingModel("odin").
		Where(Class("car"))
	pq, err := srv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := srv.PrepareSQL(pq.SQL())
	if err != nil {
		t.Fatalf("rendered SQL does not re-parse: %v\n  sql: %s", err, pq.SQL())
	}
	if replayed.Explain() != pq.Explain() {
		t.Fatalf("replayed plan diverged:\n got  %s\n want %s", replayed.Explain(), pq.Explain())
	}
}

// TestPreBootstrapCustomModelQuery pins the pre-bootstrap fix: queries
// referencing only custom registered models prepare and run before
// Bootstrap, while the built-in bindings still report ErrNotBootstrapped.
func TestPreBootstrapCustomModelQuery(t *testing.T) {
	srv, err := New(fastServerOptions(31)...)
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterModel("oracle", oracle)
	frames := srv.GenerateFrames(DayData, 6)

	// Custom model: runnable before Bootstrap, via SQL and via builder.
	res, err := srv.Query(context.Background(),
		"SELECT COUNT(detections) FROM s USING MODEL oracle WHERE class='car'", frames)
	if err != nil {
		t.Fatalf("pre-bootstrap custom-model query: %v", err)
	}
	want := 0
	for _, f := range frames {
		for _, b := range f.Boxes {
			if b.Class == ClassCar {
				want++
			}
		}
	}
	if res.Count != want {
		t.Fatalf("count %d, want %d", res.Count, want)
	}
	pq, err := srv.Prepare(Select(Count).UsingModel("oracle").Where(Class("car")))
	if err != nil {
		t.Fatalf("pre-bootstrap Prepare: %v", err)
	}
	if res2, err := pq.Execute(context.Background(), frames); err != nil || res2.Count != want {
		t.Fatalf("prepared execute: %v (count %d, want %d)", err, res2.Count, want)
	}

	// Built-ins still gate on Bootstrap, with the lifecycle error.
	for _, model := range []string{"odin", "yolo"} {
		if _, err := srv.Prepare(Select(Count).UsingModel(model)); !errors.Is(err, ErrNotBootstrapped) {
			t.Fatalf("pre-bootstrap %s: %v", model, err)
		}
	}
	// A genuinely unknown model is not misreported as un-bootstrapped.
	if _, err := srv.Prepare(Select(Count).UsingModel("ghost")); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model pre-bootstrap: %v", err)
	}
}

// TestPreparedQueryMatchesServerQuery: the prepared path and the one-shot
// SQL path agree, and a prepared query survives repeated reuse.
func TestPreparedQueryMatchesServerQuery(t *testing.T) {
	srv := sharedServer(t)
	frames := srv.GenerateFrames(DayData, 8)
	sql := "SELECT COUNT(detections) FROM stream USING MODEL yolo WHERE class='car'"
	want, err := srv.Query(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := srv.PrepareSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := pq.Execute(context.Background(), frames)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || got.ModelFrames != want.ModelFrames {
			t.Fatalf("reuse %d: %+v, want %+v", i, got, want)
		}
	}
	if pq.SQL() != sql {
		t.Fatalf("SQL round trip: %q", pq.SQL())
	}
	if pq.Explain() == "" {
		t.Fatal("Explain should render the plan")
	}
}

// TestPreparedMinScoreOverride: the builder's WithMinScore freezes a
// per-plan threshold.
func TestPreparedMinScoreOverride(t *testing.T) {
	srv := sharedServer(t)
	srv.RegisterModel("half_conf", func(f *Frame) []Detection {
		out := oracle(f)
		for i := range out {
			out[i].Score = 0.5
		}
		return out
	})
	frames := srv.GenerateFrames(DayData, 5)
	loose, err := srv.Prepare(Select(Count).UsingModel("half_conf").Where(Class("car")).WithMinScore(0.2))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := srv.Prepare(Select(Count).UsingModel("half_conf").Where(Class("car")).WithMinScore(0.9))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := loose.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := strict.Execute(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Count == 0 || sres.Count != 0 {
		t.Fatalf("min-score override broken: loose %d, strict %d", lres.Count, sres.Count)
	}
}

// subscribeRun feeds frames through a Run session with a standing
// subscription attached and collects every window, draining the main
// result channel concurrently.
func subscribeRun(t *testing.T, srv *Server, workers int, pq *PreparedQuery, frames []*Frame, windowSize int) []WindowResult {
	t.Helper()
	st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "sub", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wins, err := st.Subscribe(context.Background(), pq, WindowOptions{Size: windowSize})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	out := st.Run(context.Background(), in)
	drained := make(chan int)
	go func() {
		n := 0
		for range out {
			n++
		}
		drained <- n
	}()
	var collected []WindowResult
	for wr := range wins {
		collected = append(collected, wr)
	}
	if n := <-drained; n != len(frames) {
		t.Fatalf("run delivered %d/%d results", n, len(frames))
	}
	return collected
}

// TestSubscribeMatchesOfflineQuery is the acceptance-criteria test: a
// continuous Subscribe run over N frames produces window aggregates
// bit-identical to an offline Server.Query over the same frames, at 1, 4
// and 8 workers from either window source (run under -race in CI). The
// final window is partial, which also pins the end-of-session flush.
func TestSubscribeMatchesOfflineQuery(t *testing.T) {
	const seed, perPhase, windowSize = 17, 20, 16
	sql := "SELECT COUNT(detections) FROM stream USING MODEL odin WHERE class='car'"

	// Offline reference on a fresh, identically seeded server.
	ref, err := New(fastServerOptions(seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames := driftStream(ref, perPhase)
	want, err := ref.Query(context.Background(), sql, frames)
	if err != nil {
		t.Fatal(err)
	}
	if want.Count == 0 {
		t.Fatal("offline reference counted nothing; the comparison would be vacuous")
	}

	type row struct {
		source  string
		opts    []Option
		workers int
	}
	var rows []row
	for _, src := range windowSources {
		for _, workers := range []int{1, 4, 8} {
			rows = append(rows, row{src.name, src.opts, workers})
		}
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/workers=%d", r.source, r.workers), func(t *testing.T) {
			srv, err := New(append(fastServerOptions(seed), r.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			frames := driftStream(srv, perPhase)
			pq, err := srv.PrepareSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			wins := subscribeRun(t, srv, r.workers, pq, frames, windowSize)

			// Window bookkeeping: contiguous seq ranges covering all frames.
			seq := 0
			var perFrame []int
			total, modelFrames := 0, 0
			for k, wr := range wins {
				if wr.Window != k {
					t.Fatalf("window %d reported index %d", k, wr.Window)
				}
				if wr.StartSeq != seq {
					t.Fatalf("window %d starts at %d, want %d", k, wr.StartSeq, seq)
				}
				n := wr.EndSeq - wr.StartSeq + 1
				if n != windowSize && k != len(wins)-1 {
					t.Fatalf("non-final window %d has %d frames", k, n)
				}
				if wr.FramesScanned != n || len(wr.PerFrame) != n {
					t.Fatalf("window %d stats wrong: scanned %d, per-frame %d, want %d",
						k, wr.FramesScanned, len(wr.PerFrame), n)
				}
				perFrame = append(perFrame, wr.PerFrame...)
				total += wr.Count
				modelFrames += wr.ModelFrames
				seq = wr.EndSeq + 1
			}
			if seq != len(frames) {
				t.Fatalf("windows covered %d/%d frames", seq, len(frames))
			}

			// Bit-identical aggregates vs the offline query.
			if total != want.Count || modelFrames != want.ModelFrames {
				t.Fatalf("continuous count %d (model frames %d), offline %d (%d)",
					total, modelFrames, want.Count, want.ModelFrames)
			}
			for i := range want.PerFrame {
				if perFrame[i] != want.PerFrame[i] {
					t.Fatalf("frame %d: continuous %d, offline %d", i, perFrame[i], want.PerFrame[i])
				}
			}
		})
	}
}

// TestSubscribeCustomModelWithFilter: a subscription bound to a stateless
// custom model executes its own filter→model pipeline per window and
// matches the offline query exactly, including data-reduction stats.
func TestSubscribeCustomModelWithFilter(t *testing.T) {
	srv := sharedServer(t)
	srv.RegisterModel("sub_oracle", oracle)
	srv.RegisterFilter("has_car", func(f *Frame) bool {
		for _, b := range f.Boxes {
			if b.Class == ClassCar {
				return true
			}
		}
		return false
	})
	frames := srv.GenerateFrames(FullData, 30)
	q := Select(Count).UsingFilter("has_car").UsingModel("sub_oracle").Where(Class("car"))
	want, err := srv.Query(context.Background(), q.SQL(), frames)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := srv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	wins := subscribeRun(t, srv, 2, pq, frames, 10)
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3", len(wins))
	}
	total, filtered := 0, 0
	var perFrame []int
	for _, wr := range wins {
		total += wr.Count
		filtered += wr.FramesFiltered
		perFrame = append(perFrame, wr.PerFrame...)
	}
	if total != want.Count || filtered != want.FramesFiltered {
		t.Fatalf("continuous %d/%d filtered, offline %d/%d",
			total, filtered, want.Count, want.FramesFiltered)
	}
	for i := range want.PerFrame {
		if perFrame[i] != want.PerFrame[i] {
			t.Fatalf("frame %d: continuous %d, offline %d", i, perFrame[i], want.PerFrame[i])
		}
	}
}

// TestSubscribeSharedWindowManySubscriptions: several standing queries on
// one stream each see every window; the shared pipeline runs detection
// once (drift state advances exactly len(frames), not once per
// subscription).
func TestSubscribeSharedWindowManySubscriptions(t *testing.T) {
	srv, err := New(fastServerOptions(37)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	frames := srv.GenerateFrames(DayData, 24)
	st, err := srv.OpenStream(context.Background(), StreamOptions{Name: "multi", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"car", "truck"}
	chans := make([]<-chan WindowResult, len(classes))
	for i, cls := range classes {
		pq, err := srv.Prepare(Select(Count).UsingModel("odin").Where(Class(cls)))
		if err != nil {
			t.Fatal(err)
		}
		if chans[i], err = st.Subscribe(context.Background(), pq, WindowOptions{Size: 8, Buffer: 8}); err != nil {
			t.Fatal(err)
		}
	}
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	for range st.Run(context.Background(), in) {
	}
	for i, ch := range chans {
		n := 0
		for range ch {
			n++
		}
		if n != 3 {
			t.Fatalf("subscription %d got %d windows, want 3", i, n)
		}
	}
	if got := srv.Stats().Frames; got != len(frames) {
		t.Fatalf("pipeline advanced %d frames, want %d (detection must run once per window)",
			got, len(frames))
	}
}

// TestSubscribeErrors: foreign prepared queries, nil queries and closed
// streams are rejected; closing a stream with no active Run closes
// dangling subscription channels.
func TestSubscribeErrors(t *testing.T) {
	srv := sharedServer(t)
	other, err := New(fastServerOptions(41)...)
	if err != nil {
		t.Fatal(err)
	}
	other.RegisterModel("oracle", oracle)
	foreign, err := other.Prepare(Select(Count).UsingModel("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(context.Background(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Subscribe(context.Background(), foreign, WindowOptions{}); !errors.Is(err, ErrForeignQuery) {
		t.Fatalf("foreign query: %v", err)
	}
	if _, err := st.Subscribe(context.Background(), nil, WindowOptions{}); err == nil {
		t.Fatal("nil prepared query should error")
	}
	pq, err := srv.Prepare(Select(Count).UsingModel("odin"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := st.Subscribe(context.Background(), pq, WindowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, ok := <-ch; ok {
		t.Fatal("Close with no active Run should close subscription channels")
	}
	if _, err := st.Subscribe(context.Background(), pq, WindowOptions{}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Subscribe on closed stream: %v", err)
	}
}

// TestSubscribeContextCancellation: a cancelled subscription context drops
// the subscription at the next window without disturbing the Run session.
func TestSubscribeContextCancellation(t *testing.T) {
	srv := sharedServer(t)
	st, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pq, err := srv.Prepare(Select(Count).UsingModel("odin"))
	if err != nil {
		t.Fatal(err)
	}
	subCtx, cancel := context.WithCancel(context.Background())
	wins, err := st.Subscribe(subCtx, pq, WindowOptions{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // before any frame flows
	frames := srv.GenerateFrames(DayData, 8)
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	n := 0
	for range st.Run(context.Background(), in) {
		n++
	}
	if n != len(frames) {
		t.Fatalf("run delivered %d/%d", n, len(frames))
	}
	if _, ok := <-wins; ok {
		t.Fatal("cancelled subscription should emit nothing and close")
	}
}

// TestRunRejectsOverlappingSession: a second Run while one is active
// returns a closed channel and leaves the active session's subscriptions
// untouched.
func TestRunRejectsOverlappingSession(t *testing.T) {
	eachWindowSource(t, testRunRejectsOverlappingSession)
}

func testRunRejectsOverlappingSession(t *testing.T, srv *Server) {
	st, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pq, err := srv.Prepare(Select(Count).UsingModel("odin"))
	if err != nil {
		t.Fatal(err)
	}
	wins, err := st.Subscribe(context.Background(), pq, WindowOptions{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Frame)
	out := st.Run(context.Background(), in)
	in <- srv.GenerateFrames(DayData, 1)[0]
	if _, ok := <-out; !ok {
		t.Fatal("first session should be live")
	}

	// Second session: rejected via a closed channel; the first session's
	// subscription must survive.
	closedIn := make(chan *Frame)
	close(closedIn)
	if _, ok := <-st.Run(context.Background(), closedIn); ok {
		t.Fatal("overlapping Run should return a closed channel")
	}
	select {
	case _, ok := <-wins:
		if !ok {
			t.Fatal("overlapping Run must not close the active session's subscriptions")
		}
	default: // still open, no window complete yet — correct
	}

	// Finish the first session cleanly: its partial window flushes.
	for i := 0; i < 3; i++ {
		in <- srv.GenerateFrames(DayData, 1)[0]
	}
	close(in)
	for range out {
	}
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("expected the flushed window, got %d", n)
	}
}

// TestRunErrorPathClosesSubscriptions: a Run that fails at start (closed
// server) closes the stream's subscription channels instead of leaving
// consumers ranging forever.
func TestRunErrorPathClosesSubscriptions(t *testing.T) {
	for _, src := range windowSources {
		t.Run(src.name, func(t *testing.T) {
			srv, err := New(append(fastServerOptions(53), src.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			st, err := srv.OpenStream(context.Background(), StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pq, err := srv.Prepare(Select(Count).UsingModel("odin"))
			if err != nil {
				t.Fatal(err)
			}
			wins, err := st.Subscribe(context.Background(), pq, WindowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			srv.Close()
			if _, ok := <-st.Run(context.Background(), make(chan *Frame)); ok {
				t.Fatal("Run on a closed server should return a closed channel")
			}
			if _, ok := <-wins; ok {
				t.Fatal("failed Run should close subscription channels")
			}
		})
	}
}

// TestRegisterReservedModel: the built-in binding names cannot be
// shadowed by custom registrations — continuous queries rely on "odin"
// always meaning the drift pipeline.
func TestRegisterReservedModel(t *testing.T) {
	srv, err := New(fastServerOptions(47)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"odin", "yolo"} {
		if err := srv.RegisterModel(name, oracle); !errors.Is(err, ErrReservedModel) {
			t.Fatalf("RegisterModel(%q): %v", name, err)
		}
		if err := srv.RegisterBatchModel(name, func(fs []*Frame) [][]Detection {
			return make([][]Detection, len(fs))
		}); !errors.Is(err, ErrReservedModel) {
			t.Fatalf("RegisterBatchModel(%q): %v", name, err)
		}
	}
	if err := srv.RegisterModel("mine", oracle); err != nil {
		t.Fatalf("custom name rejected: %v", err)
	}
}

// TestSubscribeSurfacesModelError: a misbehaving custom batch model ends
// the subscription with an errored WindowResult, not a silent close.
func TestSubscribeSurfacesModelError(t *testing.T) {
	srv := sharedServer(t)
	if err := srv.RegisterBatchModel("broken", func(fs []*Frame) [][]Detection {
		return make([][]Detection, len(fs)+1) // wrong length: execution error
	}); err != nil {
		t.Fatal(err)
	}
	pq, err := srv.Prepare(Select(Count).UsingModel("broken"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wins, err := st.Subscribe(context.Background(), pq, WindowOptions{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := srv.GenerateFrames(DayData, 8)
	in := make(chan *Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range st.Run(context.Background(), in) {
		}
	}()
	wr, ok := <-wins
	if !ok || wr.Err == nil {
		t.Fatalf("expected an errored window, got ok=%v err=%v", ok, wr.Err)
	}
	if _, ok := <-wins; ok {
		t.Fatal("errored window must be the final emission")
	}
	<-done
}

// TestPreparedExecuteAllocs pins the prepared hot path: re-executing a
// compiled COUNT plan performs no parse or plan work, so its allocation
// count stays at the fixed execution-state floor — far below the
// parse-per-call path.
func TestPreparedExecuteAllocs(t *testing.T) {
	srv := sharedServer(t)
	srv.RegisterModel("noop_alloc", func(*Frame) []Detection { return nil })
	frames := srv.GenerateFrames(DayData, 8)
	sql := "SELECT COUNT(detections) FROM stream USING MODEL noop_alloc WHERE class='car'"
	pq, err := srv.PrepareSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prepared := testing.AllocsPerRun(50, func() {
		if _, err := pq.Execute(ctx, frames); err != nil {
			t.Fatal(err)
		}
	})
	perCall := testing.AllocsPerRun(50, func() {
		if _, err := srv.Query(ctx, sql, frames); err != nil {
			t.Fatal(err)
		}
	})
	// Execution state only: result, live set, survivor gather (2), batch
	// detections, per-frame counts — no token stream, AST or plan.
	if prepared > 8 {
		t.Fatalf("prepared Execute allocates %v objects/run; parse/plan work is leaking into the hot path", prepared)
	}
	if perCall <= prepared {
		t.Fatalf("parse-per-call (%v allocs) should cost more than prepared (%v)", perCall, prepared)
	}
}

func BenchmarkPreparedQueryExecute(b *testing.B) {
	srv, err := New(fastServerOptions(43)...)
	if err != nil {
		b.Fatal(err)
	}
	srv.RegisterModel("bench_oracle", oracle)
	frames := srv.GenerateFrames(DayData, 32)
	pq, err := srv.PrepareSQL("SELECT COUNT(detections) FROM stream USING MODEL bench_oracle WHERE class='car'")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Execute(ctx, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryParsePerCall(b *testing.B) {
	srv, err := New(fastServerOptions(43)...)
	if err != nil {
		b.Fatal(err)
	}
	srv.RegisterModel("bench_oracle", oracle)
	frames := srv.GenerateFrames(DayData, 32)
	sql := "SELECT COUNT(detections) FROM stream USING MODEL bench_oracle WHERE class='car'"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Query(ctx, sql, frames); err != nil {
			b.Fatal(err)
		}
	}
}
