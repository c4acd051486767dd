package odin

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestBackendDeterminismAcrossWorkers extends the facade determinism
// guarantee to both compute backends: under WithBackend(Float64) and
// WithBackend(Float32) alike, sharded Run at 1, 4 and 8 workers must
// reproduce sequential Process bit for bit — detections, drift events and
// stats. Within a backend the kernels guarantee exact reproducibility
// regardless of partitioning (DESIGN.md §8); across backends only the
// float32 tolerance holds, which TestBackendCrossParity covers.
func TestBackendDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; CI's backend-determinism job runs it under -race, one backend per runner")
	}
	const seed, perPhase = 17, 40
	for _, backend := range []Backend{Float64, Float32} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := append(fastServerOptions(seed), WithBackend(backend))
			ref, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Bootstrap(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			frames := driftStream(ref, perPhase)
			st, err := ref.OpenStream(context.Background(), StreamOptions{Name: "seq"})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(frames))
			for i, f := range frames {
				r, err := st.Process(context.Background(), f)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = r.Fingerprint()
			}
			wantStats := ref.Stats()
			if wantStats.DriftEvents == 0 {
				t.Fatal("drift stream produced no drift events; the determinism test would be vacuous")
			}

			for _, workers := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					srv, err := New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					if err := srv.Bootstrap(context.Background(), nil); err != nil {
						t.Fatal(err)
					}
					frames := driftStream(srv, perPhase)
					stream, err := srv.OpenStream(context.Background(), StreamOptions{Workers: workers})
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
					got := 0
					for res := range stream.Run(context.Background(), in) {
						if key := res.Fingerprint(); key != want[got] {
							t.Fatalf("frame %d diverged from sequential:\n got %s\nwant %s", got, key, want[got])
						}
						got++
					}
					if got != len(frames) {
						t.Fatalf("received %d/%d results", got, len(frames))
					}
					if stats := srv.Stats(); !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("stats diverged: got %+v want %+v", stats, wantStats)
					}
				})
			}
		})
	}
}

// TestBackendCrossParity bounds the float64/float32 divergence at the
// public API: identically seeded servers on the two backends must agree on
// aggregate drift behaviour (cluster and drift-event counts) and produce
// detections whose scores match to well under the decision thresholds. The
// models are trained independently per backend, so this is an end-to-end
// tolerance check, not a bit comparison.
func TestBackendCrossParity(t *testing.T) {
	if testing.Short() {
		t.Skip("a numeric tolerance check on sequential Process: nothing for -race -short to find")
	}
	const seed, perPhase = 23, 30
	run := func(backend Backend) (*Server, []Result) {
		srv, err := New(append(fastServerOptions(seed), WithBackend(backend))...)
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
		var results []Result
		for _, f := range driftStream(srv, perPhase) {
			r, err := st.Process(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		return srv, results
	}

	srv64, res64 := run(Float64)
	srv32, res32 := run(Float32)

	if srv64.NumClusters() != srv32.NumClusters() {
		t.Errorf("cluster counts diverged across backends: f64=%d f32=%d",
			srv64.NumClusters(), srv32.NumClusters())
	}
	st64, st32 := srv64.Stats(), srv32.Stats()
	if st64.DriftEvents != st32.DriftEvents {
		t.Errorf("drift-event counts diverged across backends: f64=%d f32=%d",
			st64.DriftEvents, st32.DriftEvents)
	}

	// Detection-level agreement: same boxes from same-architecture models
	// whose training differed only in rounding. Scores should track closely;
	// allow a small fraction of frames to disagree on count (threshold
	// crossings) but not wholesale divergence.
	frames := len(res64)
	mismatched := 0
	var maxScoreDelta float64
	for i := 0; i < frames; i++ {
		d64, d32 := res64[i].Detections, res32[i].Detections
		if len(d64) != len(d32) {
			mismatched++
			continue
		}
		for j := range d64 {
			if d64[j].Box.Class != d32[j].Box.Class {
				mismatched++
				break
			}
			if d := math.Abs(d64[j].Score - d32[j].Score); d > maxScoreDelta {
				maxScoreDelta = d
			}
		}
	}
	if mismatched > frames/10 {
		t.Errorf("%d/%d frames disagree across backends (allow ≤10%%)", mismatched, frames)
	}
	if maxScoreDelta > 1e-2 {
		t.Errorf("max detection score delta %g across backends exceeds 1e-2", maxScoreDelta)
	}
}
