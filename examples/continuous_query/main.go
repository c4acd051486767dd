// Continuous queries: attach a standing car-counting query to a live
// camera stream. The query is built with the typed builder, compiled once
// into a plan (printed via Explain), and subscribed to the stream — each
// window of frames emits one aggregate, computed from the same sharded
// pipeline results that serve the stream itself, so detection runs once
// per window no matter how many standing queries share the camera.
package main

import (
	"context"
	"fmt"
	"log"

	"odin"
)

func main() {
	srv, err := odin.New(
		odin.WithSeed(11),
		odin.WithBootstrapFrames(300),
		odin.WithBootstrapEpochs(4),
		odin.WithBaselineEpochs(15),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Println("bootstrapping...")
	if err := srv.Bootstrap(ctx, nil); err != nil {
		log.Fatal(err)
	}

	// Build and compile the standing query once.
	q := odin.Select(odin.Count).
		From("cam-0").
		UsingModel("odin").
		Where(odin.Class("car"))
	pq, err := srv.Prepare(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\nplan:  %s\n\n", pq.SQL(), pq.Explain())

	stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "cam-0"})
	if err != nil {
		log.Fatal(err)
	}
	windows, err := stream.Subscribe(ctx, pq, odin.WindowOptions{Size: 25})
	if err != nil {
		log.Fatal(err)
	}

	// A drifting feed: night, then day, then snow — drift events recover
	// mid-subscription and the standing query keeps counting.
	in := make(chan *odin.Frame, 32)
	go func() {
		defer close(in)
		for _, sub := range []odin.Subset{odin.NightData, odin.DayData, odin.SnowData} {
			for _, f := range srv.GenerateFrames(sub, 75) {
				in <- f
			}
		}
	}()

	// Drain the per-frame results concurrently (they share the channel
	// budget with the subscription) and count drift events.
	drift := make(chan int)
	go func() {
		n := 0
		for res := range stream.Run(ctx, in) {
			if res.Drift != nil {
				n++
			}
		}
		drift <- n
	}()

	fmt.Println("window   frames    cars  cars/frame")
	total, frames := 0, 0
	for wr := range windows {
		n := wr.EndSeq - wr.StartSeq + 1
		total += wr.Count
		frames += n
		fmt.Printf("  %3d  [%3d-%3d]  %5d  %10.2f\n",
			wr.Window, wr.StartSeq, wr.EndSeq, wr.Count, float64(wr.Count)/float64(n))
	}
	st := srv.Stats()
	fmt.Printf("\ntotal: %d cars in %d frames, %d drift events, %d clusters, %d specialist models\n",
		total, frames, <-drift, st.NumClusters, st.NumModels)
}
