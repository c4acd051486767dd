// Aggregation queries: run the paper's §6.6 car-counting SQL over a
// drifting frame stream, comparing the static baseline model against the
// drift-aware ODIN pipeline (sharded across the server's worker budget).
package main

import (
	"context"
	"fmt"
	"log"

	"odin"
)

func main() {
	srv, err := odin.New(
		odin.WithSeed(7),
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

	// Warm the pipeline so drift recovery has produced specialists.
	fmt.Println("warming the pipeline on a drifting stream...")
	warm, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "warmup"})
	if err != nil {
		log.Fatal(err)
	}
	in := make(chan *odin.Frame, 32)
	go func() {
		defer close(in)
		for _, sub := range []odin.Subset{odin.DayData, odin.NightData} {
			for _, f := range srv.GenerateFrames(sub, 350) {
				in <- f
			}
		}
	}()
	for range warm.Run(ctx, in) {
	}
	warm.Close()
	st := srv.Stats()
	fmt.Printf("clusters: %d, specialist models: %d\n\n", st.NumClusters, st.NumModels)

	// The query target: a fresh mixed-condition stream.
	frames := srv.GenerateFrames(odin.FullData, 120)

	// Ground truth for reference.
	trueCars := 0
	for _, f := range frames {
		for _, b := range f.Boxes {
			if b.Class == odin.ClassCar {
				trueCars++
			}
		}
	}
	fmt.Printf("ground truth: %d cars in %d frames\n\n", trueCars, len(frames))

	for _, model := range []string{"yolo", "odin"} {
		sql := fmt.Sprintf(
			"SELECT COUNT(detections) FROM stream USING MODEL %s WHERE class='car'", model)
		fmt.Println(sql)
		res, err := srv.Query(ctx, sql, frames)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  → %d cars (model frames: %d)\n\n", res.Count, res.ModelFrames)
	}

	// Nested form with a custom filter: only process frames a cheap
	// pre-screen says contain trucks.
	srv.RegisterFilter("truck_filter", func(f *odin.Frame) bool {
		// Toy filter for the example: pass frames whose ground truth has a
		// truck (a trained FilterNet plays this role in the benchmarks).
		for _, b := range f.Boxes {
			if b.Class == odin.ClassTruck {
				return true
			}
		}
		return false
	})
	sql := `SELECT COUNT(detections)
	        FROM (SELECT * FROM stream USING FILTER truck_filter)
	        USING MODEL odin WHERE class='truck'`
	res, err := srv.Query(ctx, sql, frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("filtered truck query:")
	fmt.Printf("  → %d trucks, %.0f%% of frames skipped by the filter\n",
		res.Count, res.DataReduction()*100)
}
