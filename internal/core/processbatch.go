package core

import (
	"odin/internal/detect"
	"odin/internal/gan"
	"odin/internal/nn"
	"odin/internal/obs"
	"odin/internal/qos"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// This file is the sharded streaming path: ProcessBatch runs a window of
// frames through the pipeline with the pure stages — project and execute —
// cut into blocks of a few frames, one worker taking each block through
// its whole network, and the mutating drift stage serialized in frame
// order between them. Sent through whole, a window pays a fork-join per
// kernel over matrices of several MB with everything between kernels on
// one core; cut into blocks it pays one fork-join per stage, and an
// ensemble's frames batch with the others naming the same model instead of
// running alone (DESIGN §5; measurements in CHANGES.md, PR 17).
//
// Nothing about a block can show in a Result: the kernels accumulate each
// output element over k in a fixed order whatever the batch width, a block
// writes only its own frames' slots, and every Result is assembled in plan
// order by the helper Execute uses. So ProcessBatch(frames, w) equals the
// sequence of Process(f) calls exactly — detections, cluster assignments,
// drift events, even the simulated-time stats — for every worker count.

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

// shardBlock is the number of frames one worker takes through a whole
// network at a time. Throughput is flat in it (steady_1cam, two cores: 2 to
// 64 alike, convolution being sample-blocked underneath), so it is set for
// memory: the workspace pool never evicts, and no stage asks it for a
// batch wider than a block however wide the window.
const shardBlock = 8

// blockSize is the block width for n frames: shardBlock, or less when that
// is what it takes to give every worker a block.
func blockSize(n, workers int) int {
	return max(1, min(shardBlock, (n+workers-1)/workers))
}

// projectAll computes the latent of every frame that is not skipped (a
// Skip frame's latent stays nil: shed frames never reach the projector),
// a block per worker at a time: each of the block's frames halved straight
// into its row of one pooled batch, projected in one forward pass when the
// projector batches (the DA-GAN does, and the block's latents then share one
// slab) and row by row otherwise — no per-frame image, row or latent copy.
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
	size := blockSize(len(idx), workers)
	tensor.ParallelWorkers((len(idx)+size-1)/size, workers, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			blk := idx[b*size : min((b+1)*size, len(idx))]
			x := nn.GetMatRaw(len(blk), frames[blk[0]].Image.DownsampledLen())
			for k, i := range blk {
				frames[i].Image.DownsampleInto(x.Row(k))
			}
			for k, z := range gan.ProjectMat(o.Detector.Proj, x) {
				latents[blk[k]] = z
			}
			nn.Recycle(x)
		}
	})
	return latents
}

// executeAll is the one execute stage: results[i] = Execute(frames[i],
// plans[i]). Every model any plan names — a frame's sole selection or one
// member of its ensemble alike — collects the frames naming it, in frame
// order, into blocks; one fan-out takes every block through its model in a
// single detector call; then each Result is assembled in plan order. A
// one-model plan with a count spec (the Count fidelity, the query COUNT
// pushdown) goes to the detector's allocation-free counting kernel instead,
// which counts exactly what assemble would.
func (o *Odin) executeAll(frames []*synth.Frame, plans []Plan, workers int) []Result {
	// A use is one model's output for one frame; slot indexes it among the
	// window's outputs, plan i owning slots [first[i], first[i+1]).
	type use struct{ frame, slot int }
	type block struct {
		m     *Model
		count *countSpec // non-nil: CountBatch under this spec, not DetectBatch
		uses  []use
	}
	var blocks []block
	size := blockSize(len(frames), workers)
	first := make([]int, len(plans)+1)
	for i, p := range plans {
		count := p.count
		if len(p.models) > 1 {
			count = nil // an ensemble is counted after fusion
		}
		first[i+1] = first[i]
		for _, wm := range p.models {
			if !wm.runs() {
				continue
			}
			// A (model, kernel) pair's open block is its latest of a dozen.
			k := len(blocks) - 1
			for k >= 0 && (blocks[k].m != wm.Model || blocks[k].count != count) {
				k--
			}
			if k < 0 || len(blocks[k].uses) == size {
				k = len(blocks)
				blocks = append(blocks, block{wm.Model, count, make([]use, 0, size)})
			}
			blocks[k].uses = append(blocks[k].uses, use{i, first[i+1]})
			first[i+1]++
		}
	}
	sets := make([][]detect.Detection, first[len(plans)])
	counts := make([]int, len(sets))
	tensor.ParallelWorkers(len(blocks), workers, func(b0, b1 int) {
		for _, b := range blocks[b0:b1] {
			imgs := make([]*synth.Image, len(b.uses))
			for k, u := range b.uses {
				imgs[k] = frames[u.frame].Image
			}
			if b.count != nil {
				for k, n := range b.m.Det.CountBatch(imgs, b.count.class, b.count.minScore) {
					counts[b.uses[k].slot] = n
				}
			} else {
				for k, dets := range b.m.Det.DetectBatch(imgs) {
					sets[b.uses[k].slot] = dets
				}
			}
		}
	})
	results := make([]Result, len(frames))
	for i, p := range plans {
		lo, hi := first[i], first[i+1]
		results[i] = p.assemble(sets[lo:hi])
		if p.count != nil && len(p.models) == 1 && hi > lo {
			results[i].Count = counts[lo] // counted in the detector, not from a set
		}
	}
	return results
}
