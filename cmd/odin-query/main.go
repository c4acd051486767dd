// Command odin-query executes an aggregation query against a generated
// dash-cam stream, using either the static baseline or the drift-aware
// ODIN pipeline (sharded across the server's worker budget). The query is
// prepared once — parse → plan → execute — and -explain prints the
// compiled plan instead of running it.
//
// Example:
//
//	odin-query -n 200 "SELECT COUNT(detections) FROM stream USING MODEL odin WHERE class='car'"
//	odin-query -explain "SELECT COUNT(detections) FROM (SELECT * FROM stream USING FILTER f) USING MODEL odin"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"odin"
	"odin/internal/query"
	"odin/internal/synth"
)

func main() {
	n := flag.Int("n", 200, "number of frames to generate")
	subset := flag.String("subset", "full", "frame distribution: full, day, night, rain, snow")
	seed := flag.Uint64("seed", 5, "random seed")
	warm := flag.Int("warm", 400, "warm-up frames per phase before querying (builds specialists)")
	explain := flag.Bool("explain", false, "print the compiled execution plan and exit without running")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: odin-query [flags] \"SELECT ...\"")
		os.Exit(2)
	}
	sql := flag.Arg(0)
	sub, err := odin.ParseSubset(*subset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odin-query: -subset: %v\n", err)
		os.Exit(2)
	}

	srv, err := odin.New(
		odin.WithSeed(*seed),
		odin.WithBootstrapFrames(300),
		odin.WithBootstrapEpochs(4),
		odin.WithBaselineEpochs(20),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Fprintln(os.Stderr, "bootstrapping...")
	if err := srv.Bootstrap(ctx, nil); err != nil {
		log.Fatal(err)
	}

	// Prepare once: references are validated and the plan is compiled
	// before any frame is generated or processed.
	prepared, err := srv.PrepareSQL(sql)
	if err != nil {
		log.Fatal(err)
	}
	if *explain {
		fmt.Printf("query: %s\nplan:  %s\n", prepared.SQL(), prepared.Explain())
		return
	}

	if *warm > 0 {
		fmt.Fprintln(os.Stderr, "warming the pipeline (drift recovery)...")
		stream, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "warmup"})
		if err != nil {
			log.Fatal(err)
		}
		in := make(chan *odin.Frame, 64)
		go func() {
			defer close(in)
			for _, s := range []odin.Subset{odin.DayData, odin.NightData} {
				for _, f := range srv.GenerateFrames(s, *warm) {
					in <- f
				}
			}
		}()
		for range stream.Run(ctx, in) {
		}
		stream.Close()
	}

	frames := srv.GenerateFrames(sub, *n)
	res, err := prepared.Execute(ctx, frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:    %s\n", sql)
	fmt.Printf("plan:     %s\n", prepared.Explain())
	fmt.Printf("frames:   %d scanned, %d filtered, %d processed by model\n",
		res.FramesScanned, res.FramesFiltered, res.ModelFrames)
	fmt.Printf("count:    %d\n", res.Count)
	if res.FramesFiltered > 0 {
		fmt.Printf("reduction: %.0f%%\n", res.DataReduction()*100)
	}

	// Report accuracy against ground truth for COUNT ... WHERE class queries.
	if q, err := query.Parse(sql); err == nil && q.Where != nil {
		for cls := 0; cls < synth.NumClasses; cls++ {
			if synth.ClassName(cls) == q.Where.Value {
				truth := query.TrueCounts(frames, cls)
				fmt.Printf("accuracy: %.3f (vs ground truth)\n",
					query.QueryAccuracy(res.PerFrame, truth))
			}
		}
	}
}
