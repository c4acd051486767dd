// Load-adaptive serving under overload: four cameras with mixed frame
// rates burst at ~4x what the server can sustain at full fidelity. Every
// stream has a bounded admission queue (overload is shed or degraded in
// the server's sight instead of piling up behind the input channel),
// and the adaptive controller walks each overloaded stream down the
// fidelity ladder — lite model, count pushdown, subsampled counts — until
// service matches the offered rate, then restores full fidelity as the
// burst subsides.
//
// The demo prints each camera's open-loop p99 latency (measured from the
// frame's *scheduled* send time, so queueing delay counts), its fidelity
// mix, and the controller's level transitions. Compare a run with
// adaptive off (edit the WithAdaptiveFidelity line away, keeping
// WithMaxQueue): the same load then backs up the bounded queues and the
// p99 climbs by an order of magnitude.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"odin"
)

const cameras = 4

// shares is each camera's fraction of the offered load: a multi-rate
// fleet, so the hot cameras degrade deep while the cold ones barely do.
var shares = []float64{0.4, 0.3, 0.2, 0.1}

func main() {
	ctx := context.Background()
	fmt.Println("bootstrapping (seed 7)...")
	srv, err := odin.New(
		odin.WithSeed(7),
		odin.WithBootstrapFrames(150),
		odin.WithBootstrapEpochs(2),
		odin.WithBaselineEpochs(6),
		odin.WithTrainAsync(true),
		odin.WithMaxQueue(64),                              // bounded admission: overload is explicit
		odin.WithAdaptiveFidelity(odin.AdaptiveFidelity{}), // default watermarks + hysteresis
		odin.WithObservability(true),                       // metrics + lifecycle events, ~free
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Bootstrap(ctx, nil); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Calibrate the full-fidelity service rate with one unpaced stream,
	// then offer 4x that across the fleet.
	calib := srv.GenerateFrames(odin.FullData, 64)
	st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "calib", MaxBatch: 8, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	in := make(chan *odin.Frame, len(calib))
	for _, f := range calib {
		in <- f
	}
	close(in)
	start := time.Now()
	for range st.Run(ctx, in) {
	}
	rate := float64(len(calib)) / time.Since(start).Seconds()
	fmt.Printf("calibrated service rate: %.0f frames/sec at full fidelity; offering ~4x in bursts\n\n", rate)

	var wg sync.WaitGroup
	for c := 0; c < cameras; c++ {
		frames := srv.GenerateFrames(odin.FullData, int(shares[c]*480)+96)
		st, err := srv.OpenStream(ctx, odin.StreamOptions{
			Name:     fmt.Sprintf("cam-%d", c),
			MaxBatch: 8, Workers: 2, Buffer: 128,
			Weight: 1 + int(shares[c]*10), // hot cameras get more flush budget
		})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(c int, st *odin.Stream, frames []*odin.Frame) {
			defer wg.Done()
			sched := make([]time.Time, len(frames))
			pos := make(map[int]int, len(frames))
			for k, f := range frames {
				pos[f.Index] = k
			}
			in := make(chan *odin.Frame, 1)
			out := st.Run(ctx, in)

			go func() { // feeder: bursty absolute schedule, 4x overload
				defer close(in)
				gap := time.Duration(float64(time.Second) / (4 * shares[c] * rate))
				next := time.Now()
				for k, f := range frames {
					g := gap
					switch {
					case k >= len(frames)-96:
						g = time.Duration(float64(time.Second) * 16 / rate) // cool-down
					case ((k/20)+c)%2 == 0:
						g = gap / 2 // burst
					default:
						g = gap * 3 / 2 // lull
					}
					next = next.Add(g)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					sched[k] = next
					in <- f // blocks when the admission queue is full
				}
			}()

			var lat []float64
			fid := map[string]int{}
			for r := range out {
				lat = append(lat, float64(time.Since(sched[pos[r.Frame.Index]]).Microseconds())/1000)
				fid[r.Fidelity.String()]++
			}
			sort.Float64s(lat)
			q := st.QoS()
			fmt.Printf("cam-%d (%2.0f%% of load): %3d frames, p99 %7.1f ms, fidelity %v, %d level transitions (final level %d)\n",
				c, shares[c]*100, len(lat), lat[int(0.99*float64(len(lat)))], fid, q.Transitions, q.Level)
		}(c, st, frames)
	}
	wg.Wait()
	if err := srv.WaitRecoveries(ctx); err != nil {
		log.Fatal(err)
	}

	s := srv.Stats()
	fmt.Printf("\nserver fidelity ledger: %d full + %d lite + %d count + %d skip, %d dropped\n",
		s.FullFrames, s.LiteFrames, s.CountFrames, s.SkipFrames, s.Dropped)
	fmt.Println("every offered frame is accounted for: admission is bounded and explicit, loss is never silent.")

	// The same story, as the monitoring stack would see it: the Prometheus
	// exposition odin-serve exports at /metrics, filtered to the QoS and
	// fidelity families, plus the tail of the lifecycle-event ring.
	var page strings.Builder
	if err := srv.WriteMetrics(&page); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmetrics snapshot after the burst (filtered /metrics exposition):")
	for _, line := range strings.Split(page.String(), "\n") {
		if strings.HasPrefix(line, "odin_fidelity_frames_total") ||
			strings.HasPrefix(line, "odin_qos_") ||
			strings.HasPrefix(line, "odin_events_total") {
			fmt.Println("  " + line)
		}
	}
	events := srv.RecentEvents(6)
	fmt.Printf("last %d lifecycle events:\n", len(events))
	for _, e := range events {
		fmt.Printf("  #%d %-18s stream=%-6q %s\n", e.Seq, e.Kind, e.Stream, e.Detail)
	}
}
