// Drift detection end to end on the public API: bootstrap a Server on one
// environment (night dash-cam scenes — the "known world"), then feed a
// channel of frames that drifts into unseen conditions through a sharded
// Stream session. The ∆-band DETECTOR flags the new concepts as they
// stabilise, the SPECIALIZER trains models for them, and every drift event
// arrives on the result channel as Result.Drift — the paper's §4 pipeline
// behind odin.Server / odin.Stream.
package main

import (
	"context"
	"fmt"
	"log"

	"odin"
)

func main() {
	ctx := context.Background()

	srv, err := odin.New(
		odin.WithSeed(5),
		odin.WithBootstrapFrames(300),
		odin.WithBootstrapEpochs(4),
		odin.WithBaselineEpochs(12),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Train the DA-GAN projection and the baseline on night scenes only,
	// so day and snow are genuinely out of distribution.
	fmt.Println("bootstrapping on night scenes (the known world)...")
	if err := srv.Bootstrap(ctx, srv.GenerateFrames(odin.NightData, 300)); err != nil {
		log.Fatal(err)
	}

	stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "cam-0", Workers: 4})
	if err != nil {
		log.Fatal(err)
	}

	// The camera first sees more night (a stable concept cluster forms),
	// then the scene drifts: dawn breaks. After the drift event the
	// SPECIALIZER's day model is resident, so the final phase shows
	// recovery — day frames now served by the specialized model instead of
	// the heavyweight baseline.
	phases := []struct {
		name   string
		subset odin.Subset
		frames int
	}{
		{"night (stable)", odin.NightData, 150},
		{"day (drift)", odin.DayData, 150},
		{"day again (recovered)", odin.DayData, 100},
	}
	boundary := map[int]string{}
	start := 0
	for _, ph := range phases {
		boundary[start] = ph.name
		start += ph.frames
	}

	in := make(chan *odin.Frame)
	go func() {
		defer close(in)
		for _, ph := range phases {
			for _, f := range srv.GenerateFrames(ph.subset, ph.frames) {
				in <- f
			}
		}
	}()

	lastPhase := start - phases[len(phases)-1].frames
	served := map[string]int{}
	for res := range stream.Run(ctx, in) {
		if name, ok := boundary[res.Seq]; ok {
			fmt.Printf("--- streaming %s ---\n", name)
		}
		if res.Drift != nil {
			fmt.Printf("  DRIFT at frame %d: cluster %s promoted (%d seed frames) -> specializing\n",
				res.Seq, res.Drift.Cluster.Label, res.Drift.NumSeeds)
		}
		if res.Seq >= lastPhase {
			for _, m := range res.ModelsUsed {
				served[m]++
			}
		}
	}
	fmt.Printf("  models serving the recovered phase: %v\n", served)

	stats := srv.Stats()
	fmt.Printf("\nframes: %d, outliers: %d, drift events: %d\n",
		stats.Frames, stats.Outliers, stats.DriftEvents)
	fmt.Printf("permanent clusters: %d, specialized models resident: %d (%.1f MB simulated)\n",
		stats.NumClusters, stats.NumModels, stats.MemoryMB)
}
