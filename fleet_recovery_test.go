package odin

import (
	"context"
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
	if st := srvB.Stats(); st.NumModels == 0 || st.ModelGen == 0 {
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
