package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"odin"
	"odin/internal/exp"
)

// The query benchmark measures the two costs the prepared-query redesign
// is meant to eliminate: per-call parse/plan overhead (Server.Query vs a
// PreparedQuery executed repeatedly over the same frame set) and the
// overhead a standing Stream.Subscribe query adds to a bare Stream.Run
// session. Results are emitted as BENCH_query.json for CI tracking.

// queryBenchResult is the JSON document written to -queryout.
type queryBenchResult struct {
	Scale      string `json:"scale"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Prepared-query throughput vs per-call parse, over a cheap model so
	// the parse/plan cost is visible next to execution.
	QueryFrames     int     `json:"query_frames"`
	QueryIters      int     `json:"query_iters"`
	PerCallQPS      float64 `json:"per_call_parse_qps"`
	PreparedQPS     float64 `json:"prepared_qps"`
	PreparedSpeedup float64 `json:"prepared_speedup"`

	// Standing-query overhead on a live stream session.
	StreamFrames       int     `json:"stream_frames"`
	BareRunFPS         float64 `json:"bare_run_fps"`
	SubscribedRunFPS   float64 `json:"subscribed_run_fps"`
	SubscribedWindows  int     `json:"subscribed_windows"`
	SubscribeOverhead  float64 `json:"subscribe_overhead_frac"`
	SubscribeIdentical bool    `json:"subscribe_identical_to_offline"`
}

// queryBenchParams scales the benchmark.
type queryBenchParams struct {
	bootFrames, bootEpochs, baselineEpochs int
	queryFrames, queryIters                int
	streamFrames, windowSize               int
}

func queryParams(scale exp.Scale) queryBenchParams {
	if scale == exp.Full {
		return queryBenchParams{
			bootFrames: 600, bootEpochs: 8, baselineEpochs: 40,
			queryFrames: 64, queryIters: 400,
			streamFrames: 600, windowSize: 32,
		}
	}
	return queryBenchParams{
		bootFrames: 150, bootEpochs: 2, baselineEpochs: 6,
		queryFrames: 32, queryIters: 150,
		streamFrames: 180, windowSize: 30,
	}
}

func newQueryServer(p queryBenchParams) (*odin.Server, error) {
	srv, err := odin.New(
		odin.WithSeed(97),
		odin.WithBootstrapFrames(p.bootFrames),
		odin.WithBootstrapEpochs(p.bootEpochs),
		odin.WithBaselineEpochs(p.baselineEpochs),
	)
	if err != nil {
		return nil, err
	}
	if err := srv.Bootstrap(context.Background(), nil); err != nil {
		return nil, err
	}
	return srv, nil
}

// runQueryBench measures prepared-query and subscription overhead and
// writes BENCH_query.json under outDir; the human-readable table goes to w.
func runQueryBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := queryParams(scale)
	ctx := context.Background()
	doc := queryBenchResult{
		Scale:       scale.String(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		QueryFrames: p.queryFrames,
		QueryIters:  p.queryIters,
	}
	fmt.Fprintf(w, "Query benchmark (GOMAXPROCS=%d)\n", doc.GOMAXPROCS)

	// Part 1 — prepared throughput vs per-call parse. A ground-truth
	// oracle model keeps execution cheap so the parse/plan share of each
	// call is visible.
	srv, err := newQueryServer(p)
	if err != nil {
		return err
	}
	srv.RegisterModel("oracle", func(f *odin.Frame) []odin.Detection {
		out := make([]odin.Detection, len(f.Boxes))
		for i, b := range f.Boxes {
			out[i] = odin.Detection{Box: b, Score: 0.99}
		}
		return out
	})
	frames := srv.GenerateFrames(odin.FullData, p.queryFrames)
	sql := "SELECT COUNT(detections) FROM (SELECT * FROM stream USING FILTER none) USING MODEL oracle WHERE class='car'"
	srv.RegisterFilter("none", func(*odin.Frame) bool { return true })

	start := time.Now()
	for i := 0; i < p.queryIters; i++ {
		if _, err := srv.Query(ctx, sql, frames); err != nil {
			return err
		}
	}
	doc.PerCallQPS = float64(p.queryIters) / time.Since(start).Seconds()

	pq, err := srv.PrepareSQL(sql)
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < p.queryIters; i++ {
		if _, err := pq.Execute(ctx, frames); err != nil {
			return err
		}
	}
	doc.PreparedQPS = float64(p.queryIters) / time.Since(start).Seconds()
	doc.PreparedSpeedup = doc.PreparedQPS / doc.PerCallQPS
	fmt.Fprintf(w, "  per-call parse:  %10.0f queries/s\n", doc.PerCallQPS)
	fmt.Fprintf(w, "  prepared:        %10.0f queries/s  %.2fx\n", doc.PreparedQPS, doc.PreparedSpeedup)

	// Part 2 — standing-query overhead. Bare Run vs Run with one standing
	// COUNT subscription, on identically seeded servers; the subscription
	// aggregates are checked against an offline query on a third.
	streamFPS := func(subscribe bool) (float64, int, []int, int, error) {
		srv, err := newQueryServer(p)
		if err != nil {
			return 0, 0, nil, 0, err
		}
		frames := srv.GenerateFrames(odin.FullData, p.streamFrames)
		st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "bench", MaxBatch: 64})
		if err != nil {
			return 0, 0, nil, 0, err
		}
		defer st.Close()
		var wins <-chan odin.WindowResult
		if subscribe {
			pq, err := srv.PrepareSQL("SELECT COUNT(detections) FROM stream USING MODEL odin WHERE class='car'")
			if err != nil {
				return 0, 0, nil, 0, err
			}
			if wins, err = st.Subscribe(ctx, pq, odin.WindowOptions{Size: p.windowSize}); err != nil {
				return 0, 0, nil, 0, err
			}
		}
		in := make(chan *odin.Frame, len(frames))
		for _, f := range frames {
			in <- f
		}
		close(in)
		var perFrame []int
		count, windows := 0, 0
		collected := make(chan struct{})
		go func() {
			defer close(collected)
			if wins == nil {
				return
			}
			for wr := range wins {
				windows++
				count += wr.Count
				perFrame = append(perFrame, wr.PerFrame...)
			}
		}()
		start := time.Now()
		n := 0
		for range st.Run(ctx, in) {
			n++
		}
		secs := time.Since(start).Seconds()
		<-collected
		if n != len(frames) {
			return 0, 0, nil, 0, fmt.Errorf("query bench: run delivered %d/%d frames", n, len(frames))
		}
		return float64(n) / secs, count, perFrame, windows, nil
	}

	doc.StreamFrames = p.streamFrames
	bareFPS, _, _, _, err := streamFPS(false)
	if err != nil {
		return err
	}
	subFPS, subCount, subPerFrame, windows, err := streamFPS(true)
	if err != nil {
		return err
	}
	doc.BareRunFPS = bareFPS
	doc.SubscribedRunFPS = subFPS
	doc.SubscribedWindows = windows
	doc.SubscribeOverhead = 1 - subFPS/bareFPS

	// Offline reference for the identity check.
	refSrv, err := newQueryServer(p)
	if err != nil {
		return err
	}
	refFrames := refSrv.GenerateFrames(odin.FullData, p.streamFrames)
	ref, err := refSrv.Query(ctx, "SELECT COUNT(detections) FROM stream USING MODEL odin WHERE class='car'", refFrames)
	if err != nil {
		return err
	}
	doc.SubscribeIdentical = subCount == ref.Count && len(subPerFrame) == len(ref.PerFrame)
	if doc.SubscribeIdentical {
		for i := range ref.PerFrame {
			if subPerFrame[i] != ref.PerFrame[i] {
				doc.SubscribeIdentical = false
				break
			}
		}
	}
	fmt.Fprintf(w, "  bare Run:        %10.1f frames/s\n", doc.BareRunFPS)
	fmt.Fprintf(w, "  with standing query: %6.1f frames/s  (%d windows, overhead %.1f%%, identical=%v)\n",
		doc.SubscribedRunFPS, windows, doc.SubscribeOverhead*100, doc.SubscribeIdentical)

	if err := writeJSON(outDir, "query", doc, w); err != nil {
		return err
	}
	// The identity check is a regression gate: a standing query that
	// diverges from the offline result fails the run.
	if !doc.SubscribeIdentical {
		return fmt.Errorf("query bench: subscription aggregates diverged from the offline query")
	}
	return nil
}
