// Fleet recovery end to end: four cameras, each with its OWN server (own
// drift detector, own cluster state, own stream of frames), share one
// model registry. The fleet bootstraps on the same night frames with the
// same seed, so all four latent substrates are comparable — the
// shared-substrate requirement of DESIGN.md §9. Dawn then breaks on every
// camera. The first camera to reach the new regime claims it in the
// registry and trains the recovery from scratch; the cameras behind it
// resolve the same regime signature and either adopt the published model
// outright or coalesce onto the in-flight build — one training serves the
// whole fleet instead of four.
//
// The tail of the run prints each camera's trainer breakdown
// (scratch/adopted/coalesced/warm) and the shared registry counters, so
// you can see the single scratch build and the three reuses.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"odin"
)

const (
	cameras   = 4
	dayFrames = 260
)

// newCamera builds one camera server wired to the shared registry. Every
// camera uses the same seed: regime signatures live in the bootstrap
// DA-GAN's latent space, so they are only comparable between servers that
// bootstrapped identically.
func newCamera(reg *odin.ModelRegistry, name string) *odin.Server {
	srv, err := odin.New(
		odin.WithSeed(29),
		odin.WithBootstrapFrames(150),
		odin.WithBootstrapEpochs(2),
		odin.WithBaselineEpochs(6),
		odin.WithLabelDelay(10000), // keep this demo on the fast distilled recovery
		odin.WithFleetRecovery(odin.FleetRecovery{Registry: reg, Source: name}),
	)
	if err != nil {
		log.Fatal(err)
	}
	return srv
}

func main() {
	ctx := context.Background()
	reg := odin.NewModelRegistry(16)

	srvs := make([]*odin.Server, cameras)
	for c := range srvs {
		srvs[c] = newCamera(reg, fmt.Sprintf("cam-%d", c))
	}

	// Identical boot frames on every camera → identical latent substrate.
	// Bootstrapping on night only makes dawn genuinely out of distribution.
	fmt.Println("bootstrapping 4 camera servers on the same night scenes...")
	boot := srvs[0].GenerateFrames(odin.NightData, 150)
	for _, srv := range srvs {
		if err := srv.Bootstrap(ctx, boot); err != nil {
			log.Fatal(err)
		}
	}

	// Each camera gets its own day draw: same regime, different frames.
	camFrames := make([][]*odin.Frame, cameras)
	for c := range camFrames {
		camFrames[c] = srvs[0].GenerateFrames(odin.DayData, dayFrames)
	}

	fmt.Printf("dawn breaks on all %d cameras (shared model registry)...\n", cameras)
	var wg sync.WaitGroup
	for c := range srvs {
		st, err := srvs[c].OpenStream(ctx, odin.StreamOptions{Name: fmt.Sprintf("cam-%d", c), Workers: 2})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(c int, st *odin.Stream, frames []*odin.Frame) {
			defer wg.Done()
			for i, f := range frames {
				res, err := st.Process(ctx, f)
				if err != nil {
					log.Fatal(err)
				}
				if res.Drift != nil {
					fmt.Printf("  DRIFT on cam-%d at frame %d: cluster %s promoted -> fleet recovery scheduled\n",
						c, i, res.Drift.Cluster.Label)
				}
			}
		}(c, st, camFrames[c])
	}
	wg.Wait()

	// Serving is done; let every recovery land (or attach to one that did).
	for _, srv := range srvs {
		if err := srv.WaitRecoveries(ctx); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nper-camera trainer breakdown (trained = scratch + adopted + coalesced + warm):")
	for c, srv := range srvs {
		ts, st := srv.TrainerStats(), srv.Stats()
		fmt.Printf("  cam-%d: %d trained = %d scratch + %d adopted + %d coalesced + %d warm   (gen %d, %d drift events)\n",
			c, ts.Trained, ts.Scratch, ts.Adopted, ts.Coalesced, ts.Warm,
			st.ModelGen, st.DriftEvents)
	}
	rst := reg.Stats()
	fmt.Printf("shared registry: %d lookups -> %d miss (built), %d adopt + %d coalesce + %d warm (reused); %d models published\n",
		rst.Lookups, rst.Misses, rst.AdoptHits, rst.Coalesced, rst.WarmHits, rst.Published)
	fmt.Println("one scratch training recovered the whole fleet.")

	for _, srv := range srvs {
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
