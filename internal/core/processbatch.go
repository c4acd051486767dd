package core

import (
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/obs"
	"odin/internal/qos"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// This file is the sharded streaming path (ROADMAP "Sharded streaming"):
// ProcessBatch runs a window of frames through the pipeline with the pure
// stages fanned out across a bounded worker pool and the mutating drift
// stage serialized in frame order. Two properties make it fast without
// sacrificing reproducibility:
//
//  1. Stage sharding. Projection and detection are pure (see Odin's
//     concurrency model), so frames split across tensor.ParallelWorkers;
//     each index writes only its own slot, which re-orders results back to
//     frame order for free.
//  2. Same-model batching. Frames whose Plan selected the same single
//     model run as one DetectBatch — batch-level im2col turns N small
//     matmuls into one large one (the PR-1 substrate's 2.3× conv win).
//     The matmul kernels accumulate each output element over k in a fixed
//     order regardless of batch width, so batched detection is
//     bit-identical to per-frame detection.
//
// The result: ProcessBatch(frames, w) equals the sequence of Process(f)
// calls exactly — detections, cluster assignments, drift events and even
// the simulated-time stats — for every worker count.

// ProcessBatch processes frames in stream order with the project and
// detect stages sharded across at most workers concurrent executors.
// Results are identical to calling Process on each frame in order.
func (o *Odin) ProcessBatch(frames []*synth.Frame, workers int) []Result {
	return o.processBatch(frames, workers, nil, nil)
}

// ProcessBatchFid is ProcessBatch with a per-frame fidelity assignment
// from the QoS layer. nil fids is the allocation-free representation of
// "every frame at full fidelity" — the same path, nothing more.
// Otherwise fids[i] governs frames[i]: Skip frames bypass projection,
// drift bookkeeping and detection entirely (their Result carries only the
// fidelity stamp and model generation); Count frames run the count
// execute (Result.Count, no Detections); Lite and Full frames run
// detection, Lite on the plan's single cheapest model. The result slice
// always has one entry per input frame, in order — the QoS layer's
// zero-silent-loss contract.
func (o *Odin) ProcessBatchFid(frames []*synth.Frame, workers int, fids []qos.Fidelity) []Result {
	return o.processBatch(frames, workers, fids, nil)
}

// countSpec makes execute count a plan's detections instead of
// materialising them: those clearing minScore whose class matches (class
// < 0 counts every class).
type countSpec struct {
	class    int
	minScore float64
}

// fidelityCount is the Count fidelity's spec: every class, no score floor,
// so Result.Count equals the length of the detections the same model
// would have materialised.
var fidelityCount = &countSpec{class: -1}

// processBatch is the one batch path: project (parallel, pure), advance
// (serialized, in frame order, one lock acquisition for the whole window),
// execute (parallel, pure). fids is the per-frame fidelity (nil = all
// full); a non-nil pushdown is the query COUNT projection, which executes
// every frame as a count under the query's spec.
func (o *Odin) processBatch(frames []*synth.Frame, workers int, fids []qos.Fidelity, pushdown *countSpec) []Result {
	n := len(frames)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	plans := o.advanceAll(frames, workers, fids)
	if pushdown != nil {
		for i := range plans {
			plans[i].count = pushdown
		}
	}

	ob := o.observer()
	t0 := ob.Now()
	results := o.executeAll(frames, plans, workers)
	ob.Stage(obs.StageDetect, t0, n)

	// Simulated time accumulates in frame order so the sharded and
	// sequential paths report bit-identical stats.
	o.mu.Lock()
	for i := range results {
		o.stats.SimTime += results[i].SimLatency
	}
	o.mu.Unlock()
	return results
}

// fidelityAt reads frame i's fidelity from an assignment whose nil form
// means all full.
func fidelityAt(fids []qos.Fidelity, i int) qos.Fidelity {
	if fids == nil {
		return qos.Full
	}
	return fids[i]
}

// advanceAll runs the batched front half: every frame's latent (sharded),
// then the serialized drift stage in frame order under one lock
// acquisition. Training jobs the window scheduled (async mode) are handed
// off outside the lock. Every batch entry point comes through here, which
// is what guarantees the count paths advance cluster evolution, drift
// events, stats and training jobs identically to full detection. Skip
// frames are excluded from projection and short-circuit inside
// advanceLocked, so a shed frame costs only its result slot.
func (o *Odin) advanceAll(frames []*synth.Frame, workers int, fids []qos.Fidelity) []Plan {
	ob := o.observer()
	t0 := ob.Now()
	latents := o.projectAll(frames, workers, fids)
	ob.Stage(obs.StageProject, t0, len(frames))
	plans := make([]Plan, len(frames))
	t0 = ob.Now()
	o.mu.Lock()
	for i, f := range frames {
		plans[i] = o.advanceLocked(f, latents[i], fidelityAt(fids, i))
	}
	jobs := o.pendingJobs
	o.pendingJobs = nil
	o.mu.Unlock()
	// The advance sample includes lock wait by design: this is the
	// pipeline's single serialization point, and queueing behind it is
	// exactly what the stage metric should surface.
	ob.Stage(obs.StageAdvance, t0, len(frames))
	o.submitJobs(jobs)
	return plans
}

// projectAll computes the latent of every frame that is not skipped (a
// Skip frame's latent stays nil: shed frames never reach the projector).
// Encoding shards across the worker pool; the projector encodes the whole
// window in one forward pass when it supports batching (the DA-GAN does),
// otherwise per-frame projection shards too. Leaving rows out of the
// batched projection is safe for bit-identity of the remaining frames
// because the matmul kernels accumulate each output element in a fixed
// order regardless of batch width.
func (o *Odin) projectAll(frames []*synth.Frame, workers int, fids []qos.Fidelity) [][]float64 {
	latents := make([][]float64, len(frames))
	if !o.Cfg.DriftRecovery {
		return latents // static mode projects nothing
	}
	idx := make([]int, 0, len(frames))
	for i := range frames {
		if fidelityAt(fids, i) != qos.Skip {
			idx = append(idx, i)
		}
	}
	bp, batched := o.Detector.Proj.(gan.BatchProjector)
	if batched && len(idx) > 1 {
		rows := make([][]float64, len(idx))
		tensor.ParallelWorkers(len(idx), workers, func(k0, k1 int) {
			for k := k0; k < k1; k++ {
				rows[k] = o.Detector.Encode(frames[idx[k]].Image)
			}
		})
		for k, z := range bp.ProjectBatch(rows) {
			latents[idx[k]] = z
		}
		return latents
	}
	tensor.ParallelWorkers(len(idx), workers, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			latents[idx[k]] = o.Detector.Project(frames[idx[k]].Image)
		}
	})
	return latents
}

// executeAll is the one execute stage: results[i] = Execute(frames[i],
// plans[i]), with frames that selected the same single model batched
// through one detector call and the rest (ensembles, model-less frames)
// sharded across the workers. Plans carrying a count spec — the Count
// fidelity and the query COUNT pushdown alike — take the detector's
// allocation-free counting kernel for the batched call and have their
// stragglers' fused detections counted and discarded, so Result.Count
// always equals what counting the detection path's output would give and
// Detections stay nil.
func (o *Odin) executeAll(frames []*synth.Frame, plans []Plan, workers int) []Result {
	type batch struct {
		m     *Model
		count *countSpec
	}
	groups := make(map[batch][]int)
	var rest []int
	for i, p := range plans {
		if len(p.models) == 1 && p.models[0].Model != nil && p.models[0].Model.Det != nil {
			b := batch{p.models[0].Model, p.count}
			groups[b] = append(groups[b], i)
		} else {
			rest = append(rest, i)
		}
	}
	results := make([]Result, len(frames))
	for b, gi := range groups {
		if b.count == nil && len(gi) == 1 {
			rest = append(rest, gi[0]) // nothing to batch: shard it
			continue
		}
		imgs := make([]*synth.Image, len(gi))
		for k, i := range gi {
			imgs[k] = frames[i].Image
		}
		var dets [][]detect.Detection
		var counts []int
		if b.count != nil {
			counts = b.m.Det.CountBatch(imgs, b.count.class, b.count.minScore)
		} else {
			dets = b.m.Det.DetectBatch(imgs)
		}
		for k, i := range gi {
			res := plans[i].res
			if b.count != nil {
				res.Count = counts[k]
			} else {
				res.Detections = dets[k]
			}
			res.ModelsUsed = append(res.ModelsUsed, b.m.Name())
			if b.m.Cost.FPS > 0 {
				res.SimLatency += 1 / b.m.Cost.FPS
			}
			results[i] = res
		}
	}
	tensor.ParallelWorkers(len(rest), workers, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			i := rest[k]
			res := o.Execute(frames[i], plans[i])
			if c := plans[i].count; c != nil {
				res.Count = countKept(res.Detections, c.class, c.minScore)
				res.Detections = nil
			}
			results[i] = res
		}
	})
	return results
}

var _ detect.BatchDetector = (*detect.GridDetector)(nil)
