package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"odin"
	"odin/internal/exp"
	"odin/internal/obs"
)

// The restore benchmark measures what a checkpoint buys on restart:
// time-to-first-detection of a warm start (Restore from a checkpoint,
// process one frame) versus a cold start (New + Bootstrap from scratch,
// process one frame), on identically-seeded servers. The measurement
// self-gates — a warm start must be at least 5× faster than the cold
// re-bootstrap it replaces, and the restored server must replay the
// post-checkpoint stream bit-identically — and lands in BENCH_restore.json
// for CI tracking.

// restoreBenchResult is the JSON document written to -restoreout.
type restoreBenchResult struct {
	Scale            string  `json:"scale"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	WarmupFrames     int     `json:"warmup_frames"`
	CheckpointBytes  int     `json:"checkpoint_bytes"`
	CheckpointMillis float64 `json:"checkpoint_ms"`
	ColdTTFDMillis   float64 `json:"cold_ttfd_ms"`
	WarmTTFDMillis   float64 `json:"warm_ttfd_ms"`
	ReplayP50Millis  float64 `json:"replay_p50_ms"`
	ReplayP99Millis  float64 `json:"replay_p99_ms"`
	Speedup          float64 `json:"speedup_warm_vs_cold"`
	ReplayIdentical  bool    `json:"replay_identical"`
	GatePassed       bool    `json:"gate_passed"`
}

func runRestoreBench(scale exp.Scale, outDir string, w io.Writer) error {
	p := streamParams(scale)
	const seed = 29

	boot := func() (*odin.Server, error) {
		srv, err := odin.New(
			odin.WithSeed(seed),
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

	fmt.Fprintf(w, "Restore benchmark (%s scale): warm restart vs cold re-bootstrap\n", scale)

	// Build the donor: bootstrap, absorb a drift stream, checkpoint.
	donor, err := boot()
	if err != nil {
		return err
	}
	defer donor.Close()
	warmup := donor.GenerateFrames(odin.NightData, p.phaseLen)
	warmup = append(warmup, donor.GenerateFrames(odin.DayData, p.phaseLen)...)
	tail := donor.GenerateFrames(odin.SnowData, p.phaseLen)

	st, err := donor.OpenStream(context.Background(), odin.StreamOptions{Name: "donor"})
	if err != nil {
		return err
	}
	for _, f := range warmup {
		if _, err := st.Process(context.Background(), f); err != nil {
			return err
		}
	}

	var buf bytes.Buffer
	ckStart := time.Now()
	if err := donor.Checkpoint(&buf); err != nil {
		return err
	}
	ckMillis := float64(time.Since(ckStart).Microseconds()) / 1e3

	// Reference continuation: the donor keeps going through the tail.
	wantTail := make([]string, len(tail))
	for i, f := range tail {
		res, err := st.Process(context.Background(), f)
		if err != nil {
			return err
		}
		wantTail[i] = res.Fingerprint()
	}
	st.Close()

	// Warm start: restore the checkpoint, first detection, then the full
	// tail replay for the determinism check.
	warmStart := time.Now()
	restored, err := odin.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	defer restored.Close()
	rst, err := restored.OpenStream(context.Background(), odin.StreamOptions{Name: "warm"})
	if err != nil {
		return err
	}
	first, err := rst.Process(context.Background(), tail[0])
	if err != nil {
		return err
	}
	warmMillis := float64(time.Since(warmStart).Microseconds()) / 1e3

	identical := first.Fingerprint() == wantTail[0]
	replayMs := make([]float64, 0, len(tail)-1)
	for i, f := range tail[1:] {
		t0 := time.Now()
		res, err := rst.Process(context.Background(), f)
		if err != nil {
			return err
		}
		replayMs = append(replayMs, float64(time.Since(t0))/float64(time.Millisecond))
		if res.Fingerprint() != wantTail[i+1] {
			identical = false
		}
	}
	rst.Close()
	sort.Float64s(replayMs)

	// Cold start: a fresh server re-bootstraps from scratch before it can
	// serve its first detection.
	coldStart := time.Now()
	cold, err := boot()
	if err != nil {
		return err
	}
	defer cold.Close()
	cst, err := cold.OpenStream(context.Background(), odin.StreamOptions{Name: "cold"})
	if err != nil {
		return err
	}
	if _, err := cst.Process(context.Background(), tail[0]); err != nil {
		return err
	}
	coldMillis := float64(time.Since(coldStart).Microseconds()) / 1e3
	cst.Close()

	res := restoreBenchResult{
		Scale:            scale.String(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		WarmupFrames:     len(warmup),
		CheckpointBytes:  buf.Len(),
		CheckpointMillis: ckMillis,
		ColdTTFDMillis:   coldMillis,
		WarmTTFDMillis:   warmMillis,
		ReplayP50Millis:  obs.Percentile(replayMs, 0.50),
		ReplayP99Millis:  obs.Percentile(replayMs, 0.99),
		Speedup:          coldMillis / warmMillis,
		ReplayIdentical:  identical,
	}
	res.GatePassed = res.Speedup >= 5 && identical

	fmt.Fprintf(w, "  checkpoint: %d bytes in %.1f ms\n", res.CheckpointBytes, res.CheckpointMillis)
	fmt.Fprintf(w, "  cold start (bootstrap + first detection): %.1f ms\n", res.ColdTTFDMillis)
	fmt.Fprintf(w, "  warm start (restore + first detection):   %.1f ms\n", res.WarmTTFDMillis)
	fmt.Fprintf(w, "  speedup %.1fx, tail replay identical: %v (replay p50 %.2fms, p99 %.2fms)\n",
		res.Speedup, res.ReplayIdentical, res.ReplayP50Millis, res.ReplayP99Millis)

	if err := writeJSON(outDir, "restore", res, w); err != nil {
		return err
	}

	if !res.GatePassed {
		return fmt.Errorf("restore gate failed: speedup %.2fx (want >= 5x), replay identical %v",
			res.Speedup, res.ReplayIdentical)
	}
	return nil
}
