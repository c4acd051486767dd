package core

import (
	"math"
	"runtime"
	"testing"

	"odin/internal/cluster"
	"odin/internal/gan"
	"odin/internal/qos"
	"odin/internal/synth"
)

// projectTestOdin returns a pipeline front end with an untrained DA-GAN of
// the serving architecture: all projectAll reads of an Odin.
func projectTestOdin(scene synth.SceneConfig) *Odin {
	dg := gan.NewDAGAN(gan.Config{InputDim: EncodedDim(scene), Latent: 16, Hidden: []int{128, 48}, LR: 0.001, Seed: 7})
	return &Odin{Cfg: Config{DriftRecovery: true}, Detector: NewDetector(dg, cluster.DefaultConfig())}
}

// TestProjectBlockMatchesProject: a frame's latent is the same bits whether
// its block is projected at once (projectAll, any worker count, skipped
// frames among it), the frame is projected alone (Detector.Project) or
// encoded and projected by hand (DownsampleEncoder, DAGAN.Project).
func TestProjectBlockMatchesProject(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	o := projectTestOdin(scene)
	dg := o.Detector.Proj.(*gan.DAGAN)
	frames := synth.NewSceneGen(4, scene).Dataset(synth.FullData, 21)
	enc := DownsampleEncoder(2)
	fids := make([]qos.Fidelity, len(frames))
	for i := range fids {
		if i%5 == 3 {
			fids[i] = qos.Skip
		}
	}
	for _, workers := range []int{1, 2, 4} {
		latents := o.projectAll(frames, workers, fids)
		for i, f := range frames {
			if fids[i] == qos.Skip {
				if latents[i] != nil {
					t.Fatalf("workers=%d: skipped frame %d has a latent", workers, i)
				}
				continue
			}
			for _, want := range [][]float64{o.Detector.Project(f.Image), dg.Project(enc(f.Image))} {
				if len(latents[i]) != len(want) || cap(latents[i]) != len(want) {
					t.Fatalf("workers=%d frame %d: latent len %d cap %d, want %d", workers, i, len(latents[i]), cap(latents[i]), len(want))
				}
				for j, v := range want {
					if math.Float64bits(latents[i][j]) != math.Float64bits(v) {
						t.Fatalf("workers=%d frame %d: latent[%d] = %v, alone %v", workers, i, j, latents[i][j], v)
					}
				}
			}
		}
	}
}

// BenchmarkProjectBlock is the project stage on one block: an 8-frame night
// block halved straight into the projector's pooled batch and encoded by a
// DA-GAN of the serving architecture, reported a frame at a time with the
// allocations that come with it.
func BenchmarkProjectBlock(b *testing.B) {
	scene := synth.DefaultSceneConfig()
	o := projectTestOdin(scene)
	frames := synth.NewSceneGen(3, scene).Dataset(synth.NightData, shardBlock)
	o.projectAll(frames, 1, nil) // the workspace pool's first draw
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.projectAll(frames, 1, nil)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	n := float64(b.N * len(frames))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/n, "us/frame")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/frame")
}
