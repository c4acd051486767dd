package core

import "odin/internal/synth"

// This file is the COUNT projection pushdown (ROADMAP follow-on from the
// query planner split): when a query only needs per-frame detection counts,
// the pipeline's execute stage can count matches directly instead of
// materialising Detection slices for every frame. It is processBatch with
// a count spec — projection, the serialized drift stage and the execute
// blocks are the very same code as ProcessBatch, so cluster evolution,
// drift events, stats and scheduled training jobs cannot diverge — and
// detect.CountBatch guarantees its counts equal len(filtered DetectBatch
// output) bit for bit.

// CountBatch advances frames exactly like ProcessBatch but executes a
// count-only projection: per frame, the number of post-NMS detections
// clearing minScore whose class matches class (class < 0 counts every
// class). Single-model frames count through the detector's allocation-free
// counting path; ensemble frames detect with every member, fuse, and have
// the fused set counted and dropped, so counts always equal what
// ProcessBatch would have produced.
func (o *Odin) CountBatch(frames []*synth.Frame, workers, class int, minScore float64) []int {
	results := o.processBatch(frames, workers, nil, &countSpec{class: class, minScore: minScore})
	if results == nil {
		return nil
	}
	counts := make([]int, len(results))
	for i, r := range results {
		counts[i] = r.Count
	}
	return counts
}
