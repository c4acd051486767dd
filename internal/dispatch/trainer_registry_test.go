package dispatch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"odin/internal/cluster"
	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/registry"
	"odin/internal/synth"
)

// regSig builds a synthetic regime signature centred at x with unit scale,
// so test distances are controlled exactly: entries at the same x adopt,
// |∆x| = 1 lands in the warm band, |∆x| ≥ 100 misses.
func regSig(x float64) *cluster.Signature {
	return &cluster.Signature{
		Key:      "t",
		Centroid: []float64{x, 0, 0, 0},
		Scale:    1,
		Hist:     []float64{0.25, 0.25, 0.25, 0.25},
	}
}

// seedRegistry publishes a model for the regime at x and returns it.
func seedRegistry(t *testing.T, reg *registry.Registry, x float64, kind detect.Kind, m *core.Model) *core.Model {
	t.Helper()
	res := reg.Resolve(regSig(x), kind, "seed")
	if res.Outcome != registry.OutcomeMiss {
		t.Fatalf("seeding expected miss, got %v", res.Outcome)
	}
	res.Claim.Publish(m, 1)
	return m
}

// liveJob makes clusterID live in the pipe (so FinishJob installs rather
// than rejecting an evicted cluster) and returns a signed job for it.
func liveJob(pipe *core.Odin, gen *synth.SceneGen, kind detect.Kind, clusterID int, x float64) core.TrainJob {
	f := gen.GenerateSubset(synth.DayData)
	pipe.Manager.AddFrame(clusterID, f)
	return core.TrainJob{Kind: kind, ClusterID: clusterID, AtFrame: 1, Sig: regSig(x)}
}

func waitTrainer(t *testing.T, tr *Trainer) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tr.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestTrainerAdoptsFromRegistry: a job whose regime matches a published
// entry installs the cached model directly — zero training — sharing the
// immutable detector across pipelines.
func TestTrainerAdoptsFromRegistry(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	reg := registry.New(4)
	tr.AttachRegistry(reg, "cam1")
	tr.SetBuild(func(core.TrainJob) (*core.Model, error) {
		t.Error("adopt path must not build")
		return nil, errors.New("unexpected build")
	})

	det := detect.NewGridDetector(detect.LiteConfig(pipe.Cfg.Scene.H, pipe.Cfg.Scene.W))
	published := seedRegistry(t, reg, 0, detect.KindLite,
		&core.Model{Kind: detect.KindLite, Det: det, ClusterID: 1, TrainedOn: 33})

	tr.Enqueue([]core.TrainJob{liveJob(pipe, gen, detect.KindLite, 5, 0.01)})
	waitTrainer(t, tr)

	st := tr.Stats()
	if st.Trained != 1 || st.Adopted != 1 || st.Scratch != 0 || st.Failed != 0 {
		t.Fatalf("stats %+v, want one adopted install", st)
	}
	m := pipe.Manager.Models()[5]
	if m == nil {
		t.Fatal("adopted model not installed")
	}
	if m.Det != published.Det {
		t.Fatal("adopted model must share the published detector")
	}
	if m == published || m.ClusterID != 5 || m.TrainedOn != 33 {
		t.Fatalf("adopted model must be a re-labelled clone: %+v", m)
	}
	if rst := reg.Stats(); rst.AdoptHits != 1 {
		t.Fatalf("registry stats %+v", rst)
	}
}

// TestTrainerWarmStartsFromRegistry: a regime-adjacent entry seeds training
// via the warm-start build path instead of scratch.
func TestTrainerWarmStartsFromRegistry(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	reg := registry.New(4)
	tr.AttachRegistry(reg, "cam1")

	published := seedRegistry(t, reg, 0, detect.KindLite, &core.Model{Kind: detect.KindLite})
	var mu sync.Mutex
	var warmFrom *core.Model
	tr.SetBuildFrom(func(job core.TrainJob, from *core.Model) (*core.Model, error) {
		mu.Lock()
		warmFrom = from
		mu.Unlock()
		return &core.Model{Kind: job.Kind, ClusterID: job.ClusterID}, nil
	})
	tr.SetBuild(func(core.TrainJob) (*core.Model, error) {
		t.Error("warm path must not scratch-build")
		return nil, errors.New("unexpected build")
	})

	// |∆x| = 1 with unit scales → distance 0.375: warm band.
	tr.Enqueue([]core.TrainJob{liveJob(pipe, gen, detect.KindLite, 5, 1)})
	waitTrainer(t, tr)

	if st := tr.Stats(); st.Trained != 1 || st.Warm != 1 {
		t.Fatalf("stats %+v, want one warm install", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if warmFrom != published {
		t.Fatal("warm build did not receive the registry model")
	}
}

// TestTrainerMissPublishesForFleet: a registry miss builds from scratch and
// publishes the result, which a second trainer then adopts.
func TestTrainerMissPublishesForFleet(t *testing.T) {
	pipeA, genA := trainerTestPipe(t)
	pipeB, genB := trainerTestPipe(t)
	trA, trB := NewTrainer(pipeA), NewTrainer(pipeB)
	defer trA.Close()
	defer trB.Close()
	reg := registry.New(4)
	trA.AttachRegistry(reg, "camA")
	trB.AttachRegistry(reg, "camB")

	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 5, 0)})
	waitTrainer(t, trA)
	if st := trA.Stats(); st.Scratch != 1 {
		t.Fatalf("A stats %+v, want one scratch install", st)
	}
	if rst := reg.Stats(); rst.Published != 1 || rst.Misses != 1 {
		t.Fatalf("registry stats %+v", rst)
	}

	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 7, 0)})
	waitTrainer(t, trB)
	if st := trB.Stats(); st.Adopted != 1 || st.Scratch != 0 {
		t.Fatalf("B stats %+v, want one adopted install", st)
	}
	if pipeB.Manager.Models()[7].Det != pipeA.Manager.Models()[5].Det {
		t.Fatal("fleet adoption must share the built detector")
	}
}

// TestTrainerCoalescesConcurrentBuilds: two trainers hitting the same
// regime concurrently share one build — the second installs the first's
// result without training.
func TestTrainerCoalescesConcurrentBuilds(t *testing.T) {
	pipeA, genA := trainerTestPipe(t)
	pipeB, genB := trainerTestPipe(t)
	trA, trB := NewTrainer(pipeA), NewTrainer(pipeB)
	defer trA.Close()
	defer trB.Close()
	reg := registry.New(4)
	trA.AttachRegistry(reg, "camA")
	trB.AttachRegistry(reg, "camB")

	release := make(chan struct{})
	built := &core.Model{Kind: detect.KindLite, Det: detect.NewGridDetector(detect.LiteConfig(8, 8))}
	trA.SetBuild(func(core.TrainJob) (*core.Model, error) {
		<-release
		return built, nil
	})
	trB.SetBuild(func(core.TrainJob) (*core.Model, error) {
		t.Error("B must coalesce, not build")
		return nil, errors.New("unexpected build")
	})

	// A claims the regime at enqueue; B's enqueue then coalesces onto it.
	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 5, 0)})
	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 7, 0)})
	if rst := reg.Stats(); rst.Coalesced != 1 {
		t.Fatalf("registry stats %+v, want B coalesced at enqueue", rst)
	}
	close(release)
	waitTrainer(t, trA)
	waitTrainer(t, trB)

	if st := trA.Stats(); st.Scratch != 1 {
		t.Fatalf("A stats %+v", st)
	}
	if st := trB.Stats(); st.Coalesced != 1 || st.Scratch != 0 {
		t.Fatalf("B stats %+v, want one coalesced install", st)
	}
	if pipeB.Manager.Models()[7].Det != built.Det {
		t.Fatal("coalesced install must carry the builder's detector")
	}
}

// TestTrainerCoalesceFallsBackOnAbort: when the builder fails, coalesced
// waiters scratch-build their own model instead of hanging or failing.
func TestTrainerCoalesceFallsBackOnAbort(t *testing.T) {
	pipeA, genA := trainerTestPipe(t)
	pipeB, genB := trainerTestPipe(t)
	trA, trB := NewTrainer(pipeA), NewTrainer(pipeB)
	defer trA.Close()
	defer trB.Close()
	reg := registry.New(4)
	trA.AttachRegistry(reg, "camA")
	trB.AttachRegistry(reg, "camB")

	release := make(chan struct{})
	trA.SetBuild(func(core.TrainJob) (*core.Model, error) {
		<-release
		return nil, errors.New("builder crash")
	})
	trB.SetBuild(func(job core.TrainJob) (*core.Model, error) {
		return &core.Model{Kind: job.Kind, ClusterID: job.ClusterID}, nil
	})

	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 5, 0)})
	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 7, 0)})
	close(release)
	waitTrainer(t, trA)
	waitTrainer(t, trB)

	if st := trA.Stats(); st.Failed != 1 || st.Trained != 0 {
		t.Fatalf("A stats %+v, want failed build", st)
	}
	if st := trB.Stats(); st.Scratch != 1 || st.Coalesced != 0 || st.Failed != 0 {
		t.Fatalf("B stats %+v, want scratch fallback", st)
	}
	if pipeB.Manager.Models()[7] == nil {
		t.Fatal("fallback build not installed")
	}
}

// TestTrainerCloseDropsCoalescedWaiters: Close while one job waits on a
// coalesced build (and another coalesced job sits queued) drops both,
// rolls their recoveries back and still joins the goroutine.
func TestTrainerCloseDropsCoalescedWaiters(t *testing.T) {
	pipeA, genA := trainerTestPipe(t)
	pipeB, genB := trainerTestPipe(t)
	trA, trB := NewTrainer(pipeA), NewTrainer(pipeB)
	defer trA.Close()
	reg := registry.New(4)
	trA.AttachRegistry(reg, "camA")
	trB.AttachRegistry(reg, "camB")

	release := make(chan struct{})
	trA.SetBuild(func(core.TrainJob) (*core.Model, error) {
		<-release
		return &core.Model{Kind: detect.KindLite}, nil
	})

	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 5, 0)})
	// Both of B's jobs coalesce onto A's still-blocked build: the first
	// reaches the ticket wait, the second stays queued behind it.
	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 7, 0)})
	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 8, 0)})
	if rst := reg.Stats(); rst.Coalesced != 2 {
		t.Fatalf("registry stats %+v, want both B jobs coalesced", rst)
	}

	closed := make(chan struct{})
	go func() { trB.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung on a coalesce wait")
	}

	if st := trB.Stats(); st.Dropped != 2 || st.Trained != 0 {
		t.Fatalf("B stats %+v, want both waiters dropped", st)
	}
	if pipeB.Stats().PendingRecoveries != 0 {
		t.Fatal("dropped coalesced waiters left recoveries pending")
	}
	// A's build is unaffected by B's shutdown.
	close(release)
	waitTrainer(t, trA)
	if st := trA.Stats(); st.Scratch != 1 {
		t.Fatalf("A stats %+v", st)
	}
}

// TestTrainerAdoptSupersededRollback: an adopted lite model arriving after
// a specialized model already landed for the cluster is rejected by the
// same FinishJob downgrade guard as a trained one.
func TestTrainerAdoptSupersededRollback(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	reg := registry.New(4)
	tr.AttachRegistry(reg, "cam1")
	seedRegistry(t, reg, 0, detect.KindLite, &core.Model{Kind: detect.KindLite})

	// Land a specialized model for cluster 5 first.
	spec := liveJob(pipe, gen, detect.KindSpecialized, 5, 100)
	spec.Sig = nil // bypass the registry: plain scratch install
	tr.SetBuild(func(job core.TrainJob) (*core.Model, error) {
		return &core.Model{Kind: job.Kind, ClusterID: job.ClusterID}, nil
	})
	tr.Enqueue([]core.TrainJob{spec})
	waitTrainer(t, tr)
	genBefore := pipe.Stats().ModelGen

	// A late lite adoption for the same cluster must roll back.
	tr.Enqueue([]core.TrainJob{liveJob(pipe, gen, detect.KindLite, 5, 0)})
	waitTrainer(t, tr)

	st := tr.Stats()
	if st.Failed != 1 || st.Adopted != 0 {
		t.Fatalf("stats %+v, want the adoption rejected", st)
	}
	if m := pipe.Manager.Models()[5]; m.Kind != detect.KindSpecialized {
		t.Fatalf("specialized model displaced by adopted lite: %v", m.Kind)
	}
	if pipe.Stats().ModelGen != genBefore {
		t.Fatal("rejected adoption bumped the model generation")
	}
}

// TestTrainerEvictedClusterRejectsAdopted: an adoption for a cluster that
// was evicted while the job queued rolls back like any other late landing.
func TestTrainerEvictedClusterRejectsAdopted(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	reg := registry.New(4)
	tr.AttachRegistry(reg, "cam1")
	seedRegistry(t, reg, 0, detect.KindLite, &core.Model{Kind: detect.KindLite})

	job := liveJob(pipe, gen, detect.KindLite, 5, 0)
	pipe.Manager.DropCluster(5) // evicted before the adoption lands
	tr.Enqueue([]core.TrainJob{job})
	waitTrainer(t, tr)

	st := tr.Stats()
	if st.Failed != 1 || st.Adopted != 0 || st.Trained != 0 {
		t.Fatalf("stats %+v, want the adoption rejected", st)
	}
	if pipe.Manager.NumModels() != 0 {
		t.Fatal("adopted model installed for an evicted cluster")
	}
}
