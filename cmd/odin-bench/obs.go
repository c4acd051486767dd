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

// The obs benchmark gates the observability layer's core contract: it is
// free enough to leave on in production and strictly observational. Three
// gates, all measured on identically-seeded servers differing only in
// WithObservability:
//
//  1. Overhead: steady-state sequential throughput (night-only stream, no
//     drift, no events) with obs on must be within 5% of obs off.
//  2. Allocations: the instrumented hot path must add no allocations per
//     frame (atomic counters and pre-sized histogram buckets only;
//     lifecycle events allocate, but none fire in steady state).
//  3. Determinism: the Fig9 drift stream — which exercises drift events,
//     recoveries and stage tracing — must produce bit-identical
//     fingerprints with obs on and off at 1, 4 and 8 workers.
//
// Results land in BENCH_obs.json for CI tracking; any failed gate fails
// the run.

// obsBenchResult is the JSON document written to -obsout.
type obsBenchResult struct {
	Scale               string           `json:"scale"`
	GOMAXPROCS          int              `json:"gomaxprocs"`
	SteadyFrames        int              `json:"steady_frames"`
	OffFPS              float64          `json:"off_fps"`
	OnFPS               float64          `json:"on_fps"`
	OverheadPct         float64          `json:"overhead_pct"`
	OffAllocsPerFrame   float64          `json:"off_allocs_per_frame"`
	OnAllocsPerFrame    float64          `json:"on_allocs_per_frame"`
	AddedAllocsPerFrame float64          `json:"added_allocs_per_frame"`
	IdentityRuns        []obsIdentityRun `json:"identity_runs"`
	GatePassed          bool             `json:"gate_passed"`
}

// obsIdentityRun records one obs-on vs obs-off fingerprint comparison on
// the drift stream.
type obsIdentityRun struct {
	Workers   int  `json:"workers"`
	Frames    int  `json:"frames"`
	Identical bool `json:"identical"`
}

func runObsBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := streamParams(scale)
	const seed = 77

	newServer := func(obsOn bool) (*odin.Server, error) {
		srv, err := odin.New(
			odin.WithSeed(seed),
			odin.WithBootstrapFrames(p.bootFrames),
			odin.WithBootstrapEpochs(p.bootEpochs),
			odin.WithBaselineEpochs(p.baselineEpochs),
			odin.WithObservability(obsOn),
		)
		if err != nil {
			return nil, err
		}
		if err := srv.Bootstrap(context.Background(), nil); err != nil {
			return nil, err
		}
		return srv, nil
	}

	// Steady-state arm: night-only frames match the bootstrap regime, so no
	// drift fires and no events allocate — this isolates the per-frame cost
	// of the tracer and metric callbacks themselves.
	steadyFrames := 4 * p.phaseLen
	measure := func(obsOn bool) (secs, allocsPerFrame float64, err error) {
		srv, err := newServer(obsOn)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		frames := srv.GenerateFrames(odin.NightData, steadyFrames)
		st, err := srv.OpenStream(context.Background(), odin.StreamOptions{Name: "steady"})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for _, f := range frames {
			if _, err := st.Process(context.Background(), f); err != nil {
				return 0, 0, err
			}
		}
		secs = time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		allocsPerFrame = float64(m1.Mallocs-m0.Mallocs) / float64(len(frames))
		return secs, allocsPerFrame, nil
	}

	// Interleave the arms across reps so clock drift and background GC hit
	// both sides equally; keep the best time and the cleanest alloc count
	// per arm (GC noise only ever inflates Mallocs deltas).
	const reps = 3
	bestOff, bestOn := -1.0, -1.0
	allocsOff, allocsOn := -1.0, -1.0
	for rep := 0; rep < reps; rep++ {
		offSecs, offAllocs, err := measure(false)
		if err != nil {
			return err
		}
		onSecs, onAllocs, err := measure(true)
		if err != nil {
			return err
		}
		if bestOff < 0 || offSecs < bestOff {
			bestOff = offSecs
		}
		if bestOn < 0 || onSecs < bestOn {
			bestOn = onSecs
		}
		if allocsOff < 0 || offAllocs < allocsOff {
			allocsOff = offAllocs
		}
		if allocsOn < 0 || onAllocs < allocsOn {
			allocsOn = onAllocs
		}
	}

	res := obsBenchResult{
		Scale:               scale.String(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		SteadyFrames:        steadyFrames,
		OffFPS:              float64(steadyFrames) / bestOff,
		OnFPS:               float64(steadyFrames) / bestOn,
		OffAllocsPerFrame:   allocsOff,
		OnAllocsPerFrame:    allocsOn,
		AddedAllocsPerFrame: allocsOn - allocsOff,
	}
	res.OverheadPct = (res.OffFPS - res.OnFPS) / res.OffFPS * 100

	fmt.Fprintf(w, "Observability overhead (steady night stream, %d frames, GOMAXPROCS=%d)\n",
		steadyFrames, res.GOMAXPROCS)
	fmt.Fprintf(w, "  obs off: %8.1f frames/s  %6.1f allocs/frame\n", res.OffFPS, res.OffAllocsPerFrame)
	fmt.Fprintf(w, "  obs on:  %8.1f frames/s  %6.1f allocs/frame\n", res.OnFPS, res.OnAllocsPerFrame)
	fmt.Fprintf(w, "  overhead %.2f%%, added allocs/frame %.2f\n", res.OverheadPct, res.AddedAllocsPerFrame)

	// Determinism arm: the Fig9 drift stream under both settings, sharded.
	// fingerprints replays the same seeded stream on a fresh server.
	fingerprints := func(obsOn bool, workers int) ([]string, error) {
		srv, err := newServer(obsOn)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		frames := fig9PublicStream(srv, p.phaseLen)
		st, err := srv.OpenStream(context.Background(),
			odin.StreamOptions{Name: fmt.Sprintf("fp%d", workers), Workers: workers, MaxBatch: 64})
		if err != nil {
			return nil, err
		}
		in := make(chan *odin.Frame, len(frames))
		for _, f := range frames {
			in <- f
		}
		close(in)
		out := make([]string, 0, len(frames))
		for res := range st.Run(context.Background(), in) {
			out = append(out, res.Fingerprint())
		}
		if len(out) != len(frames) {
			return nil, fmt.Errorf("obs bench: %d workers delivered %d/%d results", workers, len(out), len(frames))
		}
		return out, nil
	}
	for _, workers := range []int{1, 4, 8} {
		off, err := fingerprints(false, workers)
		if err != nil {
			return err
		}
		on, err := fingerprints(true, workers)
		if err != nil {
			return err
		}
		identical := len(off) == len(on)
		for i := range off {
			if !identical || off[i] != on[i] {
				identical = false
				break
			}
		}
		res.IdentityRuns = append(res.IdentityRuns,
			obsIdentityRun{Workers: workers, Frames: len(off), Identical: identical})
		fmt.Fprintf(w, "  drift stream workers=%d: obs on/off identical=%v\n", workers, identical)
	}

	allIdentical := true
	for _, run := range res.IdentityRuns {
		allIdentical = allIdentical && run.Identical
	}
	// The alloc gate allows < 1 added alloc/frame: zero at per-frame
	// granularity, with headroom for one-off runtime allocations (timer
	// wheels, map growth) that land inside the measured window.
	res.GatePassed = res.OverheadPct <= 5 && res.AddedAllocsPerFrame < 1 && allIdentical

	if err := writeJSON(outDir, "obs", res, w); err != nil {
		return err
	}

	if !res.GatePassed {
		return fmt.Errorf("obs gate failed: overhead %.2f%% (want <= 5%%), added allocs/frame %.2f (want < 1), identical %v",
			res.OverheadPct, res.AddedAllocsPerFrame, allIdentical)
	}
	return nil
}
