package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"odin"
	"odin/internal/core"
	"odin/internal/detect"
	"odin/internal/dispatch"
	"odin/internal/qos"
	"odin/internal/serveapi"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// Layer replay. The layers are the repository's modules; each is measured
// from outside by timing calls into its public functions on frame pools
// generated from the workload seed, starting from the shared checkpoint.
// Every call is a span, so trace.json shows where the replay's time went;
// the metric is the median over a few repetitions.

const (
	replayBatch = 64
	replayPool  = 256 // night frames: four batches
	replayFit   = 400 // samples of the Fit measurement
	saltReplay  = 100
)

// measure runs fn reps times, each under a span, and returns the median
// duration.
func (r *run) measure(name string, reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		end := r.spans.start(name, -1)
		fn()
		d[i] = float64(end())
	}
	return time.Duration(median(d))
}

// usPerFrame is d spread over n frames, in microseconds.
func usPerFrame(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

func images(frames []*synth.Frame) []*synth.Image {
	imgs := make([]*synth.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	return imgs
}

// layerReplay measures every layer and reports the per-layer metrics that
// do not depend on the workload.
func (r *run) layerReplay() error {
	endReplay := r.spans.start("replay", -1)
	defer func() {
		endReplay()
		if r.workload == "steady_1cam" && r.fps > 0 {
			r.steadyGap()
		}
	}()
	ctx := context.Background()
	scene := synth.DefaultSceneConfig()
	night := pool(r.seed, saltReplay, synth.NightData, replayPool)
	batch := night[:replayBatch]

	// synth
	gen := synth.NewSceneGen(r.seed+saltReplay, scene)
	d := r.measure("synth.dataset", 3, func() { gen.Dataset(synth.NightData, replayBatch) })
	r.rep.set("synth.gen_us_per_frame", usPerFrame(d, replayBatch))

	// tensor: the baseline detector's widest layer (third 3×3 convolution,
	// 24 channels in and out on a 7×12 grid) at batch 64, as im2col lays
	// it out: weights 24×216 times columns 216×(64·84).
	const mmM, mmK, mmN = 24, 216, replayBatch * 7 * 12
	wt, cols, dst := tensor.New(mmM, mmK), tensor.New(mmK, mmN), tensor.New(mmM, mmN)
	wt.Fill(0.5)
	cols.Fill(0.25)
	d = r.measure("tensor.matmul", 5, func() { tensor.MatMulInto(dst, wt, cols) })
	r.rep.set("tensor.matmul_gflops", 2*mmM*mmK*mmN/float64(d.Nanoseconds()))

	sub, err := r.newSubstrate(false, noLabels)
	if err != nil {
		return err
	}

	// gan
	enc := core.DownsampleEncoder(2)
	rows := make([][]float64, len(night))
	for i, f := range night {
		rows[i] = enc(f.Image)
	}
	d = r.measure("gan.project_batch", 5, func() { sub.dagan.ProjectBatch(rows[:replayBatch]) })
	r.rep.set("gan.project_us_per_frame", usPerFrame(d, replayBatch))

	// cluster: Observe on recorded latents, against the warmed cluster set.
	latents := sub.dagan.ProjectBatch(rows)
	d = r.measure("cluster.observe", 1, func() {
		for _, z := range latents {
			sub.pipe.Detector.Clusters.Observe(z)
		}
	})
	r.rep.set("cluster.observe_us_per_frame", usPerFrame(d, len(latents)))

	// detect
	var spec *detect.GridDetector
	for _, m := range sub.pipe.Manager.Models() {
		spec = m.Det
	}
	if spec == nil {
		return fmt.Errorf("replay: the checkpoint holds no recovery model")
	}
	imgs := images(batch)
	d = r.measure("detect.base_batch", 5, func() { sub.baseline.DetectBatch(imgs) })
	r.rep.set("detect.base_us_per_frame", usPerFrame(d, replayBatch))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d = r.measure("detect.spec_batch", 5, func() { spec.DetectBatch(imgs) })
	runtime.ReadMemStats(&ms1)
	r.rep.set("detect.spec_us_per_frame", usPerFrame(d, replayBatch))
	r.rep.set("detect.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/(5*replayBatch))
	d = r.measure("detect.count_batch", 5, func() { spec.CountBatch(imgs, synth.ClassCar, 0.3) })
	r.rep.set("detect.count_us_per_frame", usPerFrame(d, replayBatch))
	fitCfg := detect.SpecializedConfig(scene.H, scene.W)
	fitCfg.Seed = r.seed
	samples := detect.SamplesFromFrames(pool(r.seed, saltReplay+1, synth.DayData, replayFit))
	fit := detect.NewGridDetector(fitCfg)
	d = r.measure("detect.fit_epoch", 3, func() { fit.Fit(samples, 1, 16) })
	r.rep.set("detect.fit_ms_per_epoch", float64(d.Nanoseconds())/1e6)

	// core, staged: Project, Advance and Execute replayed in order, one
	// batch span over three stage spans.
	var stage [3]time.Duration
	plans := make([]core.Plan, replayBatch)
	zs := make([][]float64, replayBatch)
	for b := 0; b < len(night); b += replayBatch {
		frames := night[b : b+replayBatch]
		endBatch := r.spans.start("core.batch", b/replayBatch)
		end := r.spans.start("core.project", b/replayBatch)
		for i, f := range frames {
			zs[i] = sub.pipe.Project(f)
		}
		stage[0] += end()
		end = r.spans.start("core.advance", b/replayBatch)
		for i, f := range frames {
			plans[i] = sub.pipe.Advance(f, zs[i])
		}
		stage[1] += end()
		end = r.spans.start("core.execute", b/replayBatch)
		for i, f := range frames {
			sub.pipe.Execute(f, plans[i])
		}
		stage[2] += end()
		endBatch()
	}
	staged := usPerFrame(stage[0]+stage[1]+stage[2], len(night))
	r.rep.set("core.project_us_per_frame", usPerFrame(stage[0], len(night)))
	r.rep.set("core.advance_us_per_frame", usPerFrame(stage[1], len(night)))
	r.rep.set("core.execute_us_per_frame", usPerFrame(stage[2], len(night)))

	// core, batched: ProcessBatch on the same frames, from the same state.
	processBatch := func(workers int) (float64, error) {
		sub, err := r.newSubstrate(false, noLabels)
		if err != nil {
			return 0, err
		}
		var total time.Duration
		for b := 0; b < len(night); b += replayBatch {
			end := r.spans.start(fmt.Sprintf("core.processbatch_w%d", workers), b/replayBatch)
			sub.pipe.ProcessBatch(night[b:b+replayBatch], workers)
			total += end()
		}
		return usPerFrame(total, len(night)), nil
	}
	pbN, err := processBatch(r.nproc)
	if err != nil {
		return err
	}
	pb1, err := processBatch(1)
	if err != nil {
		return err
	}
	r.rep.set("core.processbatch_us_per_frame", pbN)
	r.rep.set("core.processbatch_w1_us_per_frame", pb1)
	r.rep.set("core.batch_vs_staged", pb1/staged)

	// core, training: jobs captured from a drifting day stream through
	// SetTrainSink, then built outside the pipeline.
	if err := r.replayBuilds(); err != nil {
		return err
	}

	// dispatch: a Submit round trip beside a direct ProcessBatch of the same
	// batch on a second, identical pipeline. The two alternate, so both see
	// the machine in the same state.
	direct, err := r.newSubstrate(false, noLabels)
	if err != nil {
		return err
	}
	routed, err := r.newSubstrate(false, noLabels)
	if err != nil {
		return err
	}
	sess := dispatch.NewBatcher(routed.pipe, dispatch.Config{MaxBatch: replayBatch, Workers: r.nproc}).Join()
	var overhead time.Duration
	for b := 0; b < len(night); b += replayBatch {
		frames := night[b : b+replayBatch]
		end := r.spans.start("dispatch.direct", b/replayBatch)
		direct.pipe.ProcessBatch(frames, r.nproc)
		overhead -= end()
		end = r.spans.start("dispatch.submit", b/replayBatch)
		_, err := sess.Submit(ctx, frames)
		overhead += end()
		if err != nil {
			sess.Leave()
			return err
		}
	}
	sess.Leave()
	r.rep.set("dispatch.submit_overhead_us_per_frame", usPerFrame(overhead, len(night)))

	// qos: one Push and one Pop of the admission queue.
	const pushPops = 200_000
	q := qos.NewQueue(64, qos.Block)
	d = r.measure("qos.pushpop", 1, func() {
		for i := 0; i < pushPops; i++ {
			q.Push(ctx, nil, night[0])
			q.Pop(ctx, nil, 1)
		}
	})
	r.rep.set("qos.pushpop_ns", float64(d.Nanoseconds())/pushPops)

	// query, checkpoint and the facade, on a server restored as the
	// workloads restore theirs.
	srv, err := restore(r.ckpt, r.commonOpts(false)...)
	if err != nil {
		return err
	}
	defer srv.Close()
	var pq *odin.PreparedQuery
	d = r.measure("query.prepare", 50, func() { pq, err = srv.PrepareSQL(querySQL) })
	if err != nil {
		return err
	}
	r.rep.set("query.prepare_us", float64(d.Nanoseconds())/1e3)
	d = r.measure("query.count", 5, func() { _, err = pq.Execute(ctx, batch) })
	if err != nil {
		return err
	}
	r.rep.set("query.count_us_per_frame", usPerFrame(d, replayBatch))
	sel, err := srv.PrepareSQL("SELECT detections FROM stream USING MODEL odin")
	if err != nil {
		return err
	}
	d = r.measure("query.select", 5, func() { _, err = sel.Execute(ctx, batch) })
	if err != nil {
		return err
	}
	r.rep.set("query.select_us_per_frame", usPerFrame(d, replayBatch))

	var ckpt bytes.Buffer
	d = r.measure("checkpoint.save", 3, func() {
		ckpt.Reset()
		err = srv.Checkpoint(&ckpt)
	})
	if err != nil {
		return err
	}
	r.rep.set("checkpoint.save_ms", float64(d.Nanoseconds())/1e6)
	r.rep.set("checkpoint.bytes", float64(ckpt.Len()))
	d = r.measure("checkpoint.restore", 3, func() {
		var s *odin.Server
		if s, err = odin.Restore(bytes.NewReader(ckpt.Bytes())); err == nil {
			s.Close()
		}
	})
	if err != nil {
		return err
	}
	r.rep.set("checkpoint.restore_ms", float64(d.Nanoseconds())/1e6)

	// serveapi: the JSON wire of one httpBatch-frame request and response.
	wire, err := r.replayWire(srv, night[:httpBatch])
	if err != nil {
		return err
	}
	// What a round trip costs beyond the wire and the pipeline is the HTTP
	// server itself (and, on two cores, waiting for the other connection).
	if r.httpRTTus > 0 {
		r.rep.set("serve.http_overhead_us_per_frame", r.httpRTTus-wire-pbN)
	}

	r.staged, r.batched = staged, pbN
	return r.replayFacade(night)
}

// steadyGap prints, for steady_1cam, the replayed per-frame cost of the
// core stages beside the time the workload took per frame. What the core
// layer does not account for is the odin facade's Run loop and emit.
func (r *run) steadyGap() {
	perFrame := 1e6 / r.fps
	self := r.spans.selfTime()
	fmt.Fprintf(os.Stderr, "bench: steady_1cam served a frame every %.1f us (1/frames_per_s, observability on)\n", perFrame)
	fmt.Fprintf(os.Stderr, "bench:   core.project+advance+execute replayed on one core: %.1f us\n", r.staged)
	fmt.Fprintf(os.Stderr, "bench:   core.ProcessBatch replayed at %d workers:          %.1f us\n", r.nproc, r.batched)
	fmt.Fprintf(os.Stderr, "bench:   gap to the facade (Run loop, channels, emit):     %.1f us\n", perFrame-r.batched)
	fmt.Fprintf(os.Stderr, "bench:   replay self time outside layer calls: %v\n", self["replay"].Round(time.Millisecond))
}

// replayBuilds captures one lite and one specialized training job from a
// day stream and times ModelManager.BuildModel on each.
func (r *run) replayBuilds() error {
	const labelDelay = 64 // so the specialized job follows the lite one within the pool
	sub, err := r.newSubstrate(true, labelDelay)
	if err != nil {
		return err
	}
	var lite, spec *core.TrainJob
	sub.pipe.SetTrainSink(func(jobs []core.TrainJob) {
		for i := range jobs {
			switch {
			case jobs[i].Kind == detect.KindLite && lite == nil:
				lite = &jobs[i]
			case jobs[i].Kind == detect.KindSpecialized && spec == nil:
				spec = &jobs[i]
			}
		}
	})
	day := pool(r.seed, saltReplay+2, synth.DayData, 512)
	for b := 0; b < len(day) && (lite == nil || spec == nil); b += replayBatch {
		sub.pipe.ProcessBatch(day[b:b+replayBatch], r.nproc)
	}
	if lite == nil || spec == nil {
		return fmt.Errorf("replay: %d day frames raised no lite and specialized training job", len(day))
	}
	d := r.measure("core.build_lite", 1, func() { sub.pipe.Manager.BuildModel(*lite) })
	r.rep.set("core.build_lite_s", d.Seconds())
	d = r.measure("core.build_spec", 1, func() { sub.pipe.Manager.BuildModel(*spec) })
	r.rep.set("core.build_spec_s", d.Seconds())
	return nil
}

// replayWire times the JSON encode and decode of one request and the
// encode of its response, and returns decode + result encode per frame in
// microseconds: the wire work odin-serve does per request.
func (r *run) replayWire(srv *odin.Server, frames []*synth.Frame) (float64, error) {
	n := len(frames)
	req := serveapi.FramesRequest{Frames: make([]serveapi.Frame, n)}
	for i, f := range frames {
		req.Frames[i] = serveapi.FromFrame(f)
	}
	var body []byte
	var err error
	d := r.measure("serveapi.encode", 5, func() { body, err = json.Marshal(req) })
	if err != nil {
		return 0, err
	}
	r.rep.set("serveapi.encode_us_per_frame", usPerFrame(d, n))
	r.rep.set("serveapi.bytes_per_frame", float64(len(body))/float64(n))
	dec := r.measure("serveapi.decode", 5, func() {
		var got serveapi.FramesRequest
		if err = json.Unmarshal(body, &got); err == nil {
			for _, wf := range got.Frames {
				serveapi.ToFrame(wf)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	r.rep.set("serveapi.decode_us_per_frame", usPerFrame(dec, n))

	st, err := srv.OpenStream(context.Background(), odin.StreamOptions{Name: "wire"})
	if err != nil {
		return 0, err
	}
	results := make([]odin.Result, n)
	for i, f := range frames {
		if results[i], err = st.Process(context.Background(), f); err != nil {
			return 0, err
		}
	}
	enc := r.measure("serveapi.result_encode", 5, func() {
		resp := serveapi.FramesResponse{Results: make([]serveapi.Result, n)}
		for i, res := range results {
			resp.Results[i] = serveapi.Result{
				Seq: i, Fingerprint: res.Fingerprint(), ClusterID: res.ClusterID,
				ModelsUsed: res.ModelsUsed, ModelGen: res.ModelGen, SimLatency: res.SimLatency,
				Detections: serveapi.FromDetections(res.Detections),
			}
		}
		_, err = json.Marshal(resp)
	})
	if err != nil {
		return 0, err
	}
	r.rep.set("serveapi.result_encode_us_per_frame", usPerFrame(enc, n))
	return usPerFrame(dec+enc, n), nil
}

// replayFacade measures the odin package's own loops on the replay pool:
// sequential Process, Run at one worker and at nproc, and Run with
// observability on.
func (r *run) replayFacade(night []*synth.Frame) error {
	const passes = 8 // of the pool per measurement: 2048 frames
	ctx := context.Background()
	runFPS := func(name string, workers int, obs bool) (float64, error) {
		srv, err := restore(r.ckpt, r.commonOpts(obs)...)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: name, Workers: workers, MaxBatch: replayBatch})
		if err != nil {
			return 0, err
		}
		in := make(chan *odin.Frame, passes*len(night))
		for p := 0; p < passes; p++ {
			for _, f := range night {
				in <- f
			}
		}
		close(in)
		end := r.spans.start(name, -1)
		n := 0
		for range st.Run(ctx, in) {
			n++
		}
		return float64(n) / end().Seconds(), nil
	}

	srv, err := restore(r.ckpt, r.commonOpts(false)...)
	if err != nil {
		return err
	}
	defer srv.Close()
	st, err := srv.OpenStream(ctx, odin.StreamOptions{Name: "process"})
	if err != nil {
		return err
	}
	end := r.spans.start("odin.process", -1)
	for p := 0; p < passes; p++ {
		for _, f := range night {
			if _, err := st.Process(ctx, f); err != nil {
				return err
			}
		}
	}
	process := end()
	processFPS := float64(passes*len(night)) / process.Seconds()
	r.rep.set("odin.process_us_per_frame", usPerFrame(process, passes*len(night)))

	run1, err := runFPS("odin.run_w1", 1, false)
	if err != nil {
		return err
	}
	// Observability off and on alternate, so drift in the machine's speed
	// over the replay lands on both sides.
	var off, on []float64
	for i := 0; i < 3; i++ {
		a, err := runFPS("odin.run", r.nproc, false)
		if err != nil {
			return err
		}
		b, err := runFPS("odin.run_obs", r.nproc, true)
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	runN := median(off)
	r.rep.set("odin.run_vs_process", runN/processFPS)
	r.rep.set("odin.run_workers_speedup", runN/run1)
	r.rep.set("obs.trace_overhead_share", 1-median(on)/runN)
	return nil
}
