package odin

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fleetServer builds a server wired to the shared registry under the
// fast-test substrate. Every fleet server uses the same seed so their
// DA-GAN latent spaces are comparable (the shared-substrate requirement of
// DESIGN.md §9).
func fleetServer(t *testing.T, reg *ModelRegistry, source string) *Server {
	t.Helper()
	srv, err := New(append(fastServerOptions(29),
		WithFleetRecovery(FleetRecovery{Registry: reg, Source: source}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// driveStream processes frames sequentially and waits for every recovery
// to land or roll back.
func driveStream(t *testing.T, srv *Server, frames []*Frame) {
	t.Helper()
	st, err := srv.OpenStream(context.Background(), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := st.Process(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.WaitRecoveries(ctx); err != nil {
		t.Fatalf("recoveries did not converge: %v", err)
	}
}

// TestFleetRegistryAdoptAcrossServers: two servers sharing a bootstrap
// substrate and a model registry; the second camera entering the regime the
// first already recovered from adopts its model instead of training.
func TestFleetRegistryAdoptAcrossServers(t *testing.T) {
	reg := NewModelRegistry(8)
	srvA := fleetServer(t, reg, "camA")
	srvB := fleetServer(t, reg, "camB")
	defer srvA.Close()
	defer srvB.Close()

	// Identical seed + identical boot frames → identical latent substrate.
	// Bootstrap on night only, so day is genuinely out of distribution.
	boot := srvA.GenerateFrames(NightData, 80)
	if err := srvA.Bootstrap(context.Background(), boot); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Bootstrap(context.Background(), boot); err != nil {
		t.Fatal(err)
	}

	// Different day draws from one generator: same regime, different frames.
	dayA := srvA.GenerateFrames(DayData, 260)
	dayB := srvA.GenerateFrames(DayData, 260)

	driveStream(t, srvA, dayA)
	stA := srvA.TrainerStats()
	if stA.Trained == 0 || stA.Scratch == 0 {
		t.Fatalf("camera A should have scratch-trained its recovery: %+v", stA)
	}
	if rst := reg.Stats(); rst.Published == 0 {
		t.Fatalf("camera A's recovery was not published: %+v", rst)
	}

	driveStream(t, srvB, dayB)
	stB := srvB.TrainerStats()
	if stB.Scratch != 0 {
		t.Fatalf("camera B trained from scratch despite the registry: %+v", stB)
	}
	if stB.Adopted+stB.Coalesced == 0 {
		t.Fatalf("camera B neither adopted nor coalesced: %+v", stB)
	}
	if srvB.NumModels() == 0 || srvB.ModelGen() == 0 {
		t.Fatal("adoption did not install a model on camera B")
	}

	// Both servers see the same shared-registry stats.
	rst := srvB.RegistryStats()
	if rst != srvA.RegistryStats() {
		t.Fatal("shared registry must report identical stats on both servers")
	}
	if rst.AdoptHits+rst.Coalesced == 0 || rst.Misses == 0 {
		t.Fatalf("registry stats inconsistent with one build + one reuse: %+v", rst)
	}

	// Drift detection itself is unchanged by adoption: both cameras saw the
	// regime change.
	if srvA.Stats().DriftEvents == 0 || srvB.Stats().DriftEvents == 0 {
		t.Fatal("drift events missing")
	}
}

// fleetCamera is what one camera of a fleet run detected: its drift-event
// and cluster counts and every result's fingerprint.
type fleetCamera struct {
	drifts, clusters int
	fps              []string
}

// runFleetCameras drives two cameras sharing a night-bootstrapped substrate
// through night→day in 20-frame windows, round-robin, landing every
// recovery before the next round so model swaps hit window boundaries.
// fleet shares one registry between them; without it each camera trains
// async on its own.
func runFleetCameras(t *testing.T, fleet bool, workers int) []fleetCamera {
	t.Helper()
	const window = 20
	reg := NewModelRegistry(8)
	srvs := make([]*Server, 2)
	for c := range srvs {
		opt := WithTrainAsync(true)
		if fleet {
			opt = WithFleetRecovery(FleetRecovery{Registry: reg, Source: fmt.Sprintf("cam%d", c)})
		}
		srv, err := New(append(fastServerOptions(29), opt)...)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[c] = srv
	}
	boot := srvs[0].GenerateFrames(NightData, 80)
	frames := make([][]*Frame, len(srvs))
	for c, srv := range srvs {
		if err := srv.Bootstrap(context.Background(), boot); err != nil {
			t.Fatal(err)
		}
		frames[c] = append(srvs[0].GenerateFrames(NightData, 2*window), srvs[0].GenerateFrames(DayData, 8*window)...)
	}

	cams := make([]fleetCamera, len(srvs))
	for start := 0; start < len(frames[0]); start += window {
		for c, srv := range srvs {
			for _, r := range collectRun(t, srv, frames[c][start:start+window], StreamOptions{Workers: workers, MaxBatch: window}) {
				cams[c].fps = append(cams[c].fps, r.Fingerprint())
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		for _, srv := range srvs {
			if err := srv.WaitRecoveries(ctx); err != nil {
				t.Fatalf("recoveries did not converge: %v", err)
			}
		}
		cancel()
	}
	for c, srv := range srvs {
		cams[c].drifts, cams[c].clusters = srv.Stats().DriftEvents, srv.NumClusters()
	}
	if fleet {
		if rst := reg.Stats(); rst.AdoptHits+rst.Coalesced == 0 {
			t.Fatalf("no camera reused a recovery; the parity check is vacuous: %+v", rst)
		}
	}
	return cams
}

// TestFleetRegistryParity: the registry changes what a recovery costs,
// never what a camera detects. With it on and off every camera counts the
// same drift events and clusters, and with it on the per-camera
// fingerprints are bit-identical at 1 and 4 workers.
func TestFleetRegistryParity(t *testing.T) {
	off := runFleetCameras(t, false, 1)
	on := runFleetCameras(t, true, 1)
	for c := range off {
		if off[c].drifts == 0 {
			t.Fatalf("camera %d saw no drift; the parity check is vacuous", c)
		}
		if on[c].drifts != off[c].drifts || on[c].clusters != off[c].clusters {
			t.Fatalf("camera %d: registry on %d drifts / %d clusters, off %d / %d",
				c, on[c].drifts, on[c].clusters, off[c].drifts, off[c].clusters)
		}
	}
	if testing.Short() {
		return // the worker sweep repeats a determinism check
	}
	for c, cam := range runFleetCameras(t, true, 4) {
		if !reflect.DeepEqual(cam.fps, on[c].fps) {
			t.Fatalf("camera %d: registry-on fingerprints differ between 1 and 4 workers", c)
		}
	}
}

// TestFleetRecoveryPrivateRegistry: WithFleetRecovery without a shared
// registry still works — the server gets a private registry and recurring
// regimes adopt their own earlier recoveries.
func TestFleetRecoveryPrivateRegistry(t *testing.T) {
	srv, err := New(append(fastServerOptions(29),
		WithFleetRecovery(FleetRecovery{Source: "solo"}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Bootstrap(context.Background(), srv.GenerateFrames(NightData, 80)); err != nil {
		t.Fatal(err)
	}
	driveStream(t, srv, srv.GenerateFrames(DayData, 260))

	st := srv.TrainerStats()
	if st.Trained == 0 {
		t.Fatalf("no recovery landed: %+v", st)
	}
	rst := srv.RegistryStats()
	if rst.Capacity != 32 || rst.Lookups == 0 || rst.Published == 0 {
		t.Fatalf("private registry not consulted: %+v", rst)
	}
}

// TestTrainerStatsFacade: Server.TrainerStats surfaces the async trainer's
// counters and is zero without one.
func TestTrainerStatsFacade(t *testing.T) {
	// No async trainer → zero stats, no panic.
	srv := sharedServer(t)
	if st := srv.TrainerStats(); st != (TrainerStats{}) {
		t.Fatalf("inline server reported trainer stats: %+v", st)
	}
	if rst := srv.RegistryStats(); rst != (RegistryStats{}) {
		t.Fatalf("non-fleet server reported registry stats: %+v", rst)
	}

	async, err := New(append(fastServerOptions(29), WithTrainAsync(true))...)
	if err != nil {
		t.Fatal(err)
	}
	defer async.Close()
	if err := async.Bootstrap(context.Background(), async.GenerateFrames(NightData, 80)); err != nil {
		t.Fatal(err)
	}
	driveStream(t, async, async.GenerateFrames(DayData, 260))
	st := async.TrainerStats()
	if st.Trained == 0 {
		t.Fatalf("async recovery not reflected in TrainerStats: %+v", st)
	}
	if st.Trained != st.Scratch+st.Warm+st.Adopted+st.Coalesced {
		t.Fatalf("trained breakdown does not sum: %+v", st)
	}
	// Without a registry every install is a scratch build.
	if st.Scratch != st.Trained {
		t.Fatalf("registry-less trainer reported non-scratch installs: %+v", st)
	}
}
