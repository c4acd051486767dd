// Quickstart: boot an ODIN server, open a camera stream session, and
// watch the pipeline detect drift and deploy specialized models as the
// scene shifts from day to night.
package main

import (
	"context"
	"fmt"
	"log"

	"odin"
)

func main() {
	// A small server: quick bootstrap budgets so this runs in ~a minute.
	srv, err := odin.New(
		odin.WithSeed(42),
		odin.WithBootstrapFrames(300),
		odin.WithBootstrapEpochs(4),
		odin.WithBaselineEpochs(15),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("bootstrapping (training DA-GAN projection + baseline detector)...")
	if err := srv.Bootstrap(ctx, nil); err != nil {
		log.Fatal(err)
	}

	// One session for our single camera. Workers: 4 shards the per-frame
	// project→select→detect stages; results come back in frame order and
	// are identical to sequential processing.
	stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "dash-cam", Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()

	// Phase 1: clear day-time driving — ODIN discovers its first concept
	// cluster. Phase 2: night falls, the input distribution shifts, ODIN
	// detects the drift and recovers with a night specialist.
	in := make(chan *odin.Frame, 32)
	go func() {
		defer close(in)
		for _, phase := range []odin.Subset{odin.DayData, odin.NightData} {
			fmt.Printf("streaming %v frames...\n", phase)
			for _, f := range srv.GenerateFrames(phase, 400) {
				in <- f
			}
		}
	}()

	for r := range stream.Run(ctx, in) {
		if r.Drift != nil {
			fmt.Printf("  drift detected at frame %d: new cluster %s\n",
				r.Seq+1, r.Drift.Cluster.Label)
		}
	}

	st := srv.Stats()
	fmt.Println()
	fmt.Printf("frames processed:   %d\n", st.Frames)
	fmt.Printf("drift events:       %d\n", st.DriftEvents)
	fmt.Printf("clusters found:     %d\n", st.NumClusters)
	fmt.Printf("specialist models:  %d\n", st.NumModels)
	fmt.Printf("simulated FPS:      %.0f\n", st.FPS())
	fmt.Printf("model memory:       %.0f MB\n", st.MemoryMB)
}
