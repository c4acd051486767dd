// Command odin-demo streams a drifting dash-cam sequence through the full
// ODIN pipeline via the concurrent Server/Stream API, printing drift
// events, model deployments and rolling accuracy as they happen.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"odin"
	"odin/internal/detect"
	"odin/internal/synth"
)

func main() {
	frames := flag.Int("frames", 500, "frames per drift phase")
	seed := flag.Uint64("seed", 11, "random seed")
	policyFlag := flag.String("policy", "delta-bm", "selection policy: delta-bm, knn-u, knn-w, most-recent")
	workers := flag.Int("workers", 0, "sharded stream workers (0 = GOMAXPROCS)")
	flag.Parse()

	policy, err := odin.ParsePolicy(*policyFlag)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := odin.New(
		odin.WithSeed(*seed),
		odin.WithBootstrapFrames(300),
		odin.WithBootstrapEpochs(4),
		odin.WithBaselineEpochs(20),
		odin.WithPolicy(policy),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Println("bootstrapping ODIN (DA-GAN + baseline)...")
	if err := srv.Bootstrap(ctx, nil); err != nil {
		log.Fatal(err)
	}

	stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "demo-cam", Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}

	phases := []odin.Subset{odin.NightData, odin.DayData, odin.SnowData, odin.RainData}
	in := make(chan *odin.Frame, 64)
	go func() {
		defer close(in)
		for _, phase := range phases {
			for _, f := range srv.GenerateFrames(phase, *frames) {
				in <- f
			}
		}
	}()

	var dets [][]detect.Detection
	var truth [][]synth.Box
	var simSecs float64
	window := 100
	for r := range stream.Run(ctx, in) {
		// Announce phase boundaries from the consumer so the transcript
		// is deterministic regardless of how far the producer ran ahead.
		if r.Seq%*frames == 0 {
			fmt.Printf("\n--- phase: %v ---\n", phases[r.Seq / *frames])
		}
		if r.Drift != nil {
			st := srv.Stats()
			fmt.Printf("frame %5d: DRIFT — new cluster %s (clusters=%d, models=%d, mem=%.0fMB)\n",
				r.Seq+1, r.Drift.Cluster.Label, st.NumClusters, st.NumModels, st.MemoryMB)
		}
		dets = append(dets, r.Detections)
		truth = append(truth, r.Frame.Boxes)
		simSecs += r.SimLatency
		if len(dets)%window == 0 {
			lo := len(dets) - window
			m := detect.MeanAveragePrecision(dets[lo:], truth[lo:], 0.5)
			// Simulated fps over the frames consumed so far (cost model,
			// DESIGN.md §1) — computed from delivered results, not live
			// server stats, so the transcript is deterministic.
			fmt.Printf("frame %5d: rolling mAP %.3f, fps %.0f\n",
				r.Seq+1, m.MAP, float64(len(dets))/simSecs)
		}
	}

	st := srv.Stats()
	fmt.Printf("\nsummary: %d frames, %d outliers, %d drift events, %d clusters, %d models, %.0f FPS, %.0f MB\n",
		st.Frames, st.Outliers, st.DriftEvents, st.NumClusters, st.NumModels, st.FPS(), st.MemoryMB)
}
