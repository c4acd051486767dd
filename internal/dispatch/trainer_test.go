package dispatch

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odin/internal/cluster"
	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/obs"
	"odin/internal/registry"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// trainerStatsProjector mirrors core's test stand-in for the DA-GAN: cheap
// appearance statistics that separate the synthetic domains.
type trainerStatsProjector struct{}

func (trainerStatsProjector) LatentDim() int { return 8 }

func (trainerStatsProjector) Project(x []float64) []float64 {
	n := len(x)
	third := n / 3
	z := make([]float64, 8)
	z[0] = tensor.Mean(x) * 10
	z[1] = math.Sqrt(tensor.Variance(x)) * 10
	for c := 0; c < 3; c++ {
		z[2+c] = tensor.Mean(x[c*third:(c+1)*third]) * 10
	}
	z[5] = tensor.Mean(x[:n/2]) * 10
	z[6] = tensor.Mean(x[n/2:]) * 10
	z[7] = (z[5] - z[6]) * 2
	return z
}

// trainerTestPipe builds a small async pipeline that drifts quickly.
func trainerTestPipe(t *testing.T) (*core.Odin, *synth.SceneGen) {
	t.Helper()
	scene := synth.DefaultSceneConfig()
	gen := synth.NewSceneGen(6, scene)
	base := detect.NewGridDetector(detect.YOLOConfig(scene.H, scene.W))
	base.Fit(detect.SamplesFromFrames(gen.Dataset(synth.FullData, 60)), 4, 16)
	cfg := core.DefaultConfig(scene)
	ccfg := cluster.DefaultConfig()
	ccfg.MinPoints = 40
	ccfg.StabilitySteps = 10
	ccfg.TempWindow = 80
	cfg.Cluster = ccfg
	cfg.Spec.LiteEpochs = 2
	cfg.Spec.SpecEpochs = 2
	cfg.Spec.LabelDelay = 10_000
	cfg.Spec.MaxTrainFrames = 120
	cfg.AsyncTrain = true
	return core.New(cfg, trainerStatsProjector{}, base), gen
}

// driftOnce processes frames until the first drift event.
func driftOnce(t *testing.T, o *core.Odin, gen *synth.SceneGen) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if r := o.Process(gen.GenerateSubset(synth.DayData)); r.Drift != nil {
			return
		}
	}
	t.Fatal("no drift within 400 frames")
}

// TestTrainerLandsRecovery: a drift-scheduled job trains on the background
// goroutine and swaps in; Wait observes the swap.
func TestTrainerLandsRecovery(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()

	driftOnce(t, pipe, gen)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tr.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if pipe.Manager.NumModels() != 1 {
		t.Fatalf("models resident %d after recovery", pipe.Manager.NumModels())
	}
	if pipe.PendingRecoveries() != 0 {
		t.Fatal("recovery still pending after Wait")
	}
	if st := tr.Stats(); st.Trained != 1 || st.Failed != 0 {
		t.Fatalf("trainer stats %+v", st)
	}
	if pipe.ModelGen() != 1 {
		t.Fatalf("model generation %d", pipe.ModelGen())
	}
}

// TestTrainerFailureRollsBack: a failing build leaves the prior model
// serving and counts as Failed — the satellite's rollback contract.
func TestTrainerFailureRollsBack(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	boom := errors.New("synthetic trainer crash")
	tr.SetBuild(func(core.TrainJob) (*core.Model, error) { return nil, boom })

	driftOnce(t, pipe, gen)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tr.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if pipe.Manager.NumModels() != 0 {
		t.Fatal("failed build must not install a model")
	}
	if st := tr.Stats(); st.Failed != 1 || st.Trained != 0 {
		t.Fatalf("trainer stats %+v", st)
	}
	// The pipeline keeps serving on the previous-best model (the baseline).
	r := pipe.Process(gen.GenerateSubset(synth.DayData))
	if len(r.ModelsUsed) != 1 || r.ModelsUsed[0] != "YOLO" {
		t.Fatalf("rollback should keep the baseline serving, got %v", r.ModelsUsed)
	}
	if r.ModelGen != 0 {
		t.Fatalf("generation bumped by a failed job: %d", r.ModelGen)
	}
}

// TestTrainerBuildPanicRollsBack: a scratch build that panics neither kills
// the process nor wedges the trainer. The job fails like an erroring build
// — rolled back, a recovery_failed event naming the panic, Failed counted —
// its registry claim is aborted, so the camera coalesced onto it builds its
// own model, and the next job trains.
func TestTrainerBuildPanicRollsBack(t *testing.T) {
	pipeA, genA := trainerTestPipe(t)
	pipeB, genB := trainerTestPipe(t)
	trA, trB := NewTrainer(pipeA), NewTrainer(pipeB)
	defer trA.Close()
	defer trB.Close()
	reg := registry.New(4)
	trA.AttachRegistry(reg, "camA")
	trB.AttachRegistry(reg, "camB")
	ob := obs.New(16)
	pipeA.SetObserver(ob)

	release := make(chan struct{})
	var builds atomic.Int32
	trA.SetBuild(func(job core.TrainJob) (*core.Model, error) {
		if builds.Add(1) == 1 {
			<-release
			panic("index out of range [7] with length 7")
		}
		return &core.Model{Kind: job.Kind, ClusterID: job.ClusterID}, nil
	})
	trB.SetBuild(func(job core.TrainJob) (*core.Model, error) {
		return &core.Model{Kind: job.Kind, ClusterID: job.ClusterID}, nil
	})

	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 5, 0)})
	trB.Enqueue([]core.TrainJob{liveJob(pipeB, genB, detect.KindLite, 7, 0)}) // coalesces onto A's claim
	close(release)
	waitTrainer(t, trA)
	waitTrainer(t, trB)

	if st := trA.Stats(); st.Failed != 1 || st.Trained != 0 {
		t.Fatalf("A stats %+v, want the panicked build failed", st)
	}
	if pipeA.PendingRecoveries() != 0 || pipeA.Manager.NumModels() != 0 {
		t.Fatalf("after the panic: %d recoveries pending, %d models", pipeA.PendingRecoveries(), pipeA.Manager.NumModels())
	}
	requireFailedEvent(t, ob, "index out of range [7] with length 7")
	if st := trB.Stats(); st.Scratch != 1 || st.Coalesced != 0 {
		t.Fatalf("B stats %+v, want a scratch fallback after the aborted claim", st)
	}

	trA.Enqueue([]core.TrainJob{liveJob(pipeA, genA, detect.KindLite, 6, 100)})
	waitTrainer(t, trA)
	if st := trA.Stats(); st.Scratch != 1 || pipeA.Manager.Models()[6] == nil {
		t.Fatalf("A stats %+v: the job after the panic did not train", st)
	}
}

// TestTrainerWarmBuildPanicRollsBack: the same for a warm-started build.
func TestTrainerWarmBuildPanicRollsBack(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	reg := registry.New(4)
	tr.AttachRegistry(reg, "cam1")
	ob := obs.New(16)
	pipe.SetObserver(ob)
	seedRegistry(t, reg, 0, detect.KindLite, &core.Model{Kind: detect.KindLite})
	tr.SetBuildFrom(func(core.TrainJob, *core.Model) (*core.Model, error) {
		panic(errors.New("weights shape mismatch"))
	})

	tr.Enqueue([]core.TrainJob{liveJob(pipe, gen, detect.KindLite, 5, 1)}) // warm band
	waitTrainer(t, tr)
	if st := tr.Stats(); st.Failed != 1 || st.Warm != 0 {
		t.Fatalf("stats %+v, want the panicked warm build failed", st)
	}
	if pipe.PendingRecoveries() != 0 {
		t.Fatal("the panicked warm build left its recovery pending")
	}
	requireFailedEvent(t, ob, "weights shape mismatch")

	tr.Enqueue([]core.TrainJob{liveJob(pipe, gen, detect.KindLite, 6, 100)}) // a miss: scratch
	waitTrainer(t, tr)
	if st := tr.Stats(); st.Scratch != 1 || pipe.Manager.Models()[6] == nil {
		t.Fatalf("stats %+v: the job after the panic did not train", st)
	}
}

// TestTrainerKernelPanicRollsBack: a build whose kernel panics inside a
// tensor.Parallel chunk fails like any panicked build. Both chunks of the
// loop panic once they are running side by side, so one of the two panics
// is on a pool helper; it reaches the trainer, not the process.
func TestTrainerKernelPanicRollsBack(t *testing.T) {
	pipe, gen := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	defer tr.Close()
	ob := obs.New(16)
	pipe.SetObserver(ob)
	prev := tensor.Parallelism()
	tensor.SetParallelism(2)
	defer tensor.SetParallelism(prev)
	tr.SetBuild(func(core.TrainJob) (*core.Model, error) {
		var running atomic.Int32
		tensor.Parallel(2, 1<<20, func(int, int) {
			running.Add(1)
			for deadline := time.Now().Add(10 * time.Second); running.Load() < 2 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			panic("kernel chunk")
		})
		return nil, nil
	})

	driftOnce(t, pipe, gen)
	waitTrainer(t, tr)
	if st := tr.Stats(); st.Failed != 1 || st.Trained != 0 {
		t.Fatalf("stats %+v, want the panicked build failed", st)
	}
	if pipe.PendingRecoveries() != 0 || pipe.Manager.NumModels() != 0 {
		t.Fatalf("after the panic: %d recoveries pending, %d models", pipe.PendingRecoveries(), pipe.Manager.NumModels())
	}
	requireFailedEvent(t, ob, "kernel chunk")
}

// requireFailedEvent finds the recovery_failed event of a panicked build
// that names the panic value.
func requireFailedEvent(t *testing.T, ob *obs.Observer, value string) {
	t.Helper()
	for _, e := range ob.Events().Recent(0) {
		if e.Kind == obs.EvRecoveryFailed && strings.Contains(e.Detail, ErrBuildPanicked.Error()) && strings.Contains(e.Detail, value) {
			return
		}
	}
	t.Fatalf("no recovery_failed event naming the panic %q in %+v", value, ob.Events().Recent(0))
}

func TestGuardBuild(t *testing.T) {
	m, err := guardBuild(func() (*core.Model, error) { panic(42) })
	var bp *buildPanic
	if m != nil || !errors.Is(err, ErrBuildPanicked) || !errors.As(err, &bp) || bp.value != 42 {
		t.Fatalf("guardBuild of a panic = %v, %v", m, err)
	}
	want := &core.Model{}
	if m, err := guardBuild(func() (*core.Model, error) { return want, nil }); m != want || err != nil {
		t.Fatalf("guardBuild of a plain build = %v, %v", m, err)
	}
}

// TestTrainerCloseDropsQueue: Close with queued jobs drops them, rolls
// their recoveries back, and still joins the goroutine mid-build.
func TestTrainerCloseDropsQueue(t *testing.T) {
	pipe, _ := trainerTestPipe(t)
	tr := NewTrainer(pipe)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	tr.SetBuild(func(core.TrainJob) (*core.Model, error) {
		once.Do(func() { close(started) })
		<-release
		return nil, errors.New("aborted")
	})
	job := core.TrainJob{Kind: detect.KindLite, ClusterID: 999}
	tr.Enqueue([]core.TrainJob{job})
	<-started // first job is mid-build
	tr.Enqueue([]core.TrainJob{{Kind: detect.KindSpecialized, ClusterID: 998}})

	done := make(chan struct{})
	go func() { tr.Close(); close(done) }()
	// Let Close mark the trainer closed (dropping the queued job) before
	// releasing the in-flight build.
	for {
		tr.mu.Lock()
		closed := tr.closed
		tr.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not join the trainer goroutine")
	}
	st := tr.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped %d queued jobs, want 1", st.Dropped)
	}
	// Jobs enqueued after Close are dropped immediately, not leaked.
	tr.Enqueue([]core.TrainJob{{Kind: detect.KindLite, ClusterID: 997}})
	if st := tr.Stats(); st.Dropped != 2 {
		t.Fatalf("post-close enqueue not dropped: %+v", st)
	}
	if pipe.PendingRecoveries() != 0 {
		t.Fatal("dropped jobs left recoveries pending")
	}
}
