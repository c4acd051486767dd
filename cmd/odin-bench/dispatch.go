package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"odin"
	"odin/internal/exp"
	"odin/internal/obs"
)

// The dispatch benchmark measures the fleet subsystem on two axes, both on
// the same drifting-fleet scenario (every camera: a stable night phase,
// then dawn breaks — one shared day recovery serves the whole fleet):
//
//  1. Fleet throughput: wall-clock frames/sec to serve N concurrent camera
//     streams through the drift, with per-stream Run sessions + inline
//     training (a drift event trains the specializer under the pipeline
//     lock, stalling every camera) versus the dispatched fleet — windows
//     merged across sessions into shared ProcessBatch calls and training
//     moved to the async trainer, so serving continues (on the
//     previous-best model) while the recovery trains. Dispatched
//     throughput must not fall below per-stream at ≥2 streams.
//  2. Recovery stall: per-frame serving latency of a fleet living through
//     a 4-phase drift sequence, inline vs async training. Inline training
//     blocks the whole fleet for the full training duration — those
//     samples are the stall; the fleet-wide p99 must drop measurably with
//     async training.
//
// Results are emitted as BENCH_dispatch.json for CI tracking; the
// throughput and stall requirements are asserted, so this bench is the
// fleet regression gate. (Raw cross-stream batch merging is throughput-
// neutral on this CPU substrate — the blocked kernels already saturate at
// batch 1, see DESIGN.md §7 — so the throughput axis measures what the
// fleet subsystem actually changes end to end: drift recovery off the
// serving path plus merged windows.)

// dispatchBenchResult is the JSON document written to -dispatchout.
type dispatchBenchResult struct {
	Scale           string        `json:"scale"`
	GOMAXPROCS      int           `json:"gomaxprocs"`
	FramesPerStream int           `json:"frames_per_stream"`
	Fleet           []fleetPoint  `json:"fleet"`
	RecoveryStall   recoveryStall `json:"recovery_stall"`
}

// fleetPoint compares per-stream/inline and dispatched/async throughput
// at one fleet size, on the same drifting scenario.
type fleetPoint struct {
	Streams       int     `json:"streams"`
	PerStreamFPS  float64 `json:"per_stream_inline_fps"`
	DispatchedFPS float64 `json:"dispatched_async_fps"`
	Speedup       float64 `json:"speedup_dispatched_vs_per_stream"`
	PerDrifts     int     `json:"per_stream_drift_events"`
	DispDrifts    int     `json:"dispatched_drift_events"`
}

// recoveryStall compares serving latency through a drift event.
type recoveryStall struct {
	Frames         int     `json:"frames"`
	InlineDrifts   int     `json:"inline_drift_events"`
	AsyncDrifts    int     `json:"async_drift_events"`
	InlineP99Ms    float64 `json:"inline_p99_ms"`
	AsyncP99Ms     float64 `json:"async_p99_ms"`
	InlineMaxMs    float64 `json:"inline_max_ms"`
	AsyncMaxMs     float64 `json:"async_max_ms"`
	P99Reduction   float64 `json:"p99_reduction"` // inline/async
	PendingInterim int     `json:"async_interim_frames"`
}

type dispatchBenchParams struct {
	bootFrames, bootEpochs, baselineEpochs int
	framesPerStream                        int
	stallStreams, stallPhase               int
}

func dispatchParams(scale exp.Scale) dispatchBenchParams {
	if scale == exp.Full {
		return dispatchBenchParams{
			bootFrames: 600, bootEpochs: 8, baselineEpochs: 40,
			framesPerStream: 240, stallStreams: 8, stallPhase: 60,
		}
	}
	return dispatchBenchParams{
		bootFrames: 150, bootEpochs: 2, baselineEpochs: 6,
		framesPerStream: 120, stallStreams: 8, stallPhase: 40,
	}
}

// newDispatchServer builds one bootstrapped server; boot selects the
// bootstrap subset (FullData for throughput, NightData for the stall
// scenario so day genuinely drifts).
func newDispatchServer(p dispatchBenchParams, boot odin.Subset, extra ...odin.Option) (*odin.Server, error) {
	opts := append([]odin.Option{
		odin.WithSeed(73),
		odin.WithBootstrapFrames(p.bootFrames),
		odin.WithBootstrapEpochs(p.bootEpochs),
		odin.WithBaselineEpochs(p.baselineEpochs),
	}, extra...)
	srv, err := odin.New(opts...)
	if err != nil {
		return nil, err
	}
	if err := srv.Bootstrap(context.Background(), srv.GenerateFrames(boot, p.bootFrames)); err != nil {
		return nil, err
	}
	return srv, nil
}

// runFleet drives streams cameras concurrently through the shared drift
// scenario (night stable, then dawn breaks on every camera) and returns
// the total serving frames/sec and drift events. With async training the
// clock stops when every frame has been served — the point of the async
// path is exactly that recoveries still training do not hold frames
// hostage; WaitRecoveries then runs untimed so the server closes cleanly.
func runFleet(srv *odin.Server, streams, perStream int) (float64, int, error) {
	defer srv.Close()
	night := perStream / 5
	camFrames := make([][]*odin.Frame, streams)
	for c := range camFrames {
		camFrames[c] = append(srv.GenerateFrames(odin.NightData, night),
			srv.GenerateFrames(odin.DayData, perStream-night)...)
	}
	sts := make([]*odin.Stream, streams)
	for c := range sts {
		st, err := srv.OpenStream(context.Background(), odin.StreamOptions{
			Name: fmt.Sprintf("cam-%d", c), MaxBatch: 8,
		})
		if err != nil {
			return 0, 0, err
		}
		sts[c] = st
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	start := time.Now()
	for c := range sts {
		wg.Add(1)
		go func(st *odin.Stream, frames []*odin.Frame) {
			defer wg.Done()
			in := make(chan *odin.Frame, len(frames))
			for _, f := range frames {
				in <- f
			}
			close(in)
			n := 0
			for range st.Run(context.Background(), in) {
				n++
			}
			if n != len(frames) {
				errs <- fmt.Errorf("dispatch bench: camera delivered %d/%d results", n, len(frames))
			}
		}(sts[c], camFrames[c])
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return 0, 0, err
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := srv.WaitRecoveries(ctx); err != nil {
		return 0, 0, fmt.Errorf("dispatch bench: fleet recovery did not converge: %w", err)
	}
	return float64(streams*perStream) / secs, srv.Stats().DriftEvents, nil
}

// measureStall bootstraps on night, then drives a fleet of concurrent
// streams through a 4-phase drifting sequence (night → day → snow → rain),
// timing every Stream.Process call. With inline training every drift event
// stalls the whole fleet for the training duration — those samples are
// what the p99 captures. Returns the sorted per-frame latencies (ms),
// drift events, and interim (pending) frames.
func measureStall(p dispatchBenchParams, async bool) ([]float64, int, int, error) {
	var extra []odin.Option
	if async {
		extra = append(extra, odin.WithTrainAsync(true))
	}
	srv, err := newDispatchServer(p, odin.NightData, extra...)
	if err != nil {
		return nil, 0, 0, err
	}
	defer srv.Close()

	// Per-camera frame sequences: the same drift phases, generated
	// per-stream so the fleet moves through each concept together.
	camFrames := make([][]*odin.Frame, p.stallStreams)
	for c := range camFrames {
		var frames []*odin.Frame
		for _, sub := range []odin.Subset{odin.NightData, odin.DayData, odin.SnowData, odin.RainData} {
			frames = append(frames, srv.GenerateFrames(sub, p.stallPhase)...)
		}
		camFrames[c] = frames
	}

	var mu sync.Mutex
	var lat []float64
	interim := 0
	var wg sync.WaitGroup
	errs := make(chan error, p.stallStreams)
	for c := range camFrames {
		st, err := srv.OpenStream(context.Background(), odin.StreamOptions{Name: fmt.Sprintf("stall-%d", c)})
		if err != nil {
			return nil, 0, 0, err
		}
		wg.Add(1)
		go func(st *odin.Stream, frames []*odin.Frame) {
			defer wg.Done()
			for _, f := range frames {
				start := time.Now()
				res, err := st.Process(context.Background(), f)
				ms := float64(time.Since(start).Microseconds()) / 1000
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				lat = append(lat, ms)
				if res.RecoveryPending {
					interim++
				}
				mu.Unlock()
			}
		}(st, camFrames[c])
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, 0, 0, err
	default:
	}
	if async {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := srv.WaitRecoveries(ctx); err != nil {
			return nil, 0, 0, fmt.Errorf("dispatch bench: async recovery did not converge: %w", err)
		}
	}
	drifts := srv.Stats().DriftEvents
	sort.Float64s(lat)
	return lat, drifts, interim, nil
}

// runDispatchBench measures the fleet dispatcher and writes
// BENCH_dispatch.json under outDir; the human-readable tables go to w.
func runDispatchBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := dispatchParams(scale)
	doc := dispatchBenchResult{
		Scale: scale.String(), GOMAXPROCS: runtime.GOMAXPROCS(0), FramesPerStream: p.framesPerStream,
	}

	fmt.Fprintf(w, "Fleet throughput through drift (%d frames/stream, night→day, MaxBatch=8, GOMAXPROCS=%d)\n",
		p.framesPerStream, doc.GOMAXPROCS)
	// Recoveries stay on the distilled lite models (label delay beyond the
	// stream) so both modes train the same job set: one shared night
	// promotion, one shared day recovery, regardless of fleet size.
	noSpec := odin.WithLabelDelay(1 << 20)
	for _, streams := range []int{1, 2, 4, 8} {
		per, err := newDispatchServer(p, odin.NightData, noSpec)
		if err != nil {
			return err
		}
		perFPS, perDrifts, err := runFleet(per, streams, p.framesPerStream)
		if err != nil {
			return err
		}
		disp, err := newDispatchServer(p, odin.NightData, noSpec,
			odin.WithDispatcher(true), odin.WithMaxBatch(64), odin.WithTrainAsync(true))
		if err != nil {
			return err
		}
		dispFPS, dispDrifts, err := runFleet(disp, streams, p.framesPerStream)
		if err != nil {
			return err
		}
		pt := fleetPoint{
			Streams: streams, PerStreamFPS: perFPS, DispatchedFPS: dispFPS,
			Speedup: dispFPS / perFPS, PerDrifts: perDrifts, DispDrifts: dispDrifts,
		}
		doc.Fleet = append(doc.Fleet, pt)
		fmt.Fprintf(w, "  streams=%d:  per-stream/inline %8.1f f/s (%d drifts)   dispatched/async %8.1f f/s (%d drifts)   %.2fx\n",
			pt.Streams, pt.PerStreamFPS, pt.PerDrifts, pt.DispatchedFPS, pt.DispDrifts, pt.Speedup)
	}

	inline, inDrifts, _, err := measureStall(p, false)
	if err != nil {
		return err
	}
	async, asDrifts, interim, err := measureStall(p, true)
	if err != nil {
		return err
	}
	doc.RecoveryStall = recoveryStall{
		Frames:         len(inline),
		InlineDrifts:   inDrifts,
		AsyncDrifts:    asDrifts,
		InlineP99Ms:    obs.Percentile(inline, 0.99),
		AsyncP99Ms:     obs.Percentile(async, 0.99),
		InlineMaxMs:    inline[len(inline)-1],
		AsyncMaxMs:     async[len(async)-1],
		PendingInterim: interim,
	}
	if doc.RecoveryStall.AsyncP99Ms > 0 {
		doc.RecoveryStall.P99Reduction = doc.RecoveryStall.InlineP99Ms / doc.RecoveryStall.AsyncP99Ms
	}
	rs := doc.RecoveryStall
	fmt.Fprintf(w, "Recovery stall (4-phase drift, %d concurrent streams, %d frames total)\n",
		p.stallStreams, rs.Frames)
	fmt.Fprintf(w, "  inline training:  p99 %8.2f ms   max %8.2f ms   (%d drift events)\n",
		rs.InlineP99Ms, rs.InlineMaxMs, rs.InlineDrifts)
	fmt.Fprintf(w, "  async  training:  p99 %8.2f ms   max %8.2f ms   (%d drift events, %d interim frames)\n",
		rs.AsyncP99Ms, rs.AsyncMaxMs, rs.AsyncDrifts, rs.PendingInterim)
	fmt.Fprintf(w, "  recovery-stall p99 reduction: %.1fx\n", rs.P99Reduction)

	if err := writeJSON(outDir, "dispatch", doc, w); err != nil {
		return err
	}

	// The JSON lands on disk first so a regression still leaves the series
	// for debugging — but it must fail the run: this bench is the fleet
	// regression gate in CI.
	for _, pt := range doc.Fleet {
		if pt.Streams >= 2 && pt.PerDrifts == 0 {
			return fmt.Errorf("dispatch bench: no drift at %d streams; the fleet comparison is vacuous", pt.Streams)
		}
		if pt.Streams >= 2 && pt.DispatchedFPS < pt.PerStreamFPS {
			return fmt.Errorf("dispatch bench: dispatched throughput %.1f f/s below per-stream %.1f f/s at %d streams",
				pt.DispatchedFPS, pt.PerStreamFPS, pt.Streams)
		}
	}
	if rs.InlineDrifts == 0 || rs.AsyncDrifts == 0 {
		return fmt.Errorf("dispatch bench: stall scenario triggered no drift (inline=%d async=%d)", rs.InlineDrifts, rs.AsyncDrifts)
	}
	if rs.AsyncP99Ms >= rs.InlineP99Ms {
		return fmt.Errorf("dispatch bench: async recovery-stall p99 %.2fms not below inline %.2fms", rs.AsyncP99Ms, rs.InlineP99Ms)
	}
	return nil
}
