package detect

import (
	"sort"

	"odin/internal/synth"
)

// EvalResult carries detection-quality metrics over a test set.
type EvalResult struct {
	MAP      float64         // mean average precision @ IoU 0.5
	PerClass map[int]float64 // AP per class (classes present in GT)
	Counts   map[int]int     // GT instances per class
}

// scoredDet is one detection tagged with its frame.
type scoredDet struct {
	frame int
	det   Detection
}

// MeanAveragePrecision computes mAP@0.5 over frames with ground truth:
// per class, detections are sorted by score and greedily matched to unused
// GT boxes at IoU ≥ iouThr, producing a precision–recall curve whose
// all-point interpolated area is that class's AP; mAP averages over the
// classes present in the ground truth — the COCO-API protocol the paper's
// implementation uses.
func MeanAveragePrecision(detections [][]Detection, truth [][]synth.Box, iouThr float64) EvalResult {
	if len(detections) != len(truth) {
		panic("detect: detections/truth length mismatch")
	}
	byClass := make(map[int][]scoredDet)
	gtCount := make(map[int]int)
	for f, dets := range detections {
		for _, d := range dets {
			byClass[d.Box.Class] = append(byClass[d.Box.Class], scoredDet{f, d})
		}
	}
	for _, boxes := range truth {
		for _, b := range boxes {
			gtCount[b.Class]++
		}
	}

	res := EvalResult{PerClass: make(map[int]float64), Counts: gtCount}
	var sum float64
	var nClasses int
	for class, total := range gtCount {
		ap := averagePrecision(byClass[class], truth, class, total, iouThr)
		res.PerClass[class] = ap
		sum += ap
		nClasses++
	}
	if nClasses > 0 {
		res.MAP = sum / float64(nClasses)
	}
	return res
}

func averagePrecision(dets []scoredDet, truth [][]synth.Box, class, totalGT int, iouThr float64) float64 {
	if totalGT == 0 {
		return 0
	}
	sort.Slice(dets, func(a, b int) bool { return dets[a].det.Score > dets[b].det.Score })
	used := make(map[[2]int]bool) // (frame, gtIndex) consumed
	tp := make([]bool, len(dets))
	for i, sd := range dets {
		bestIoU := 0.0
		bestJ := -1
		for j, gt := range truth[sd.frame] {
			if gt.Class != class || used[[2]int{sd.frame, j}] {
				continue
			}
			if iou := sd.det.Box.IoU(gt); iou > bestIoU {
				bestIoU = iou
				bestJ = j
			}
		}
		if bestJ >= 0 && bestIoU >= iouThr {
			tp[i] = true
			used[[2]int{sd.frame, bestJ}] = true
		}
	}
	// Precision-recall curve.
	var cumTP, cumFP float64
	precisions := make([]float64, len(dets))
	recalls := make([]float64, len(dets))
	for i := range dets {
		if tp[i] {
			cumTP++
		} else {
			cumFP++
		}
		precisions[i] = cumTP / (cumTP + cumFP)
		recalls[i] = cumTP / float64(totalGT)
	}
	// All-point interpolation: make precision monotonically non-increasing
	// from the right, then integrate over recall steps.
	for i := len(precisions) - 2; i >= 0; i-- {
		if precisions[i+1] > precisions[i] {
			precisions[i] = precisions[i+1]
		}
	}
	var ap float64
	prevRecall := 0.0
	for i := range dets {
		if recalls[i] > prevRecall {
			ap += (recalls[i] - prevRecall) * precisions[i]
			prevRecall = recalls[i]
		}
	}
	return ap
}

// evalBatch is the frame-batch size detectAll hands to batch-capable
// detectors so the conv stack runs one batched pass, split across the
// workers, instead of a batch-1 pass per frame.
const evalBatch = 32

// detectAll runs a detector over every image, chunked through DetectBatch
// when the detector supports it.
func detectAll(d Detector, imgs []*synth.Image) [][]Detection {
	dets := make([][]Detection, len(imgs))
	bd, ok := d.(BatchDetector)
	if !ok {
		for i, im := range imgs {
			dets[i] = d.Detect(im)
		}
		return dets
	}
	for start := 0; start < len(imgs); start += evalBatch {
		end := start + evalBatch
		if end > len(imgs) {
			end = len(imgs)
		}
		copy(dets[start:end], bd.DetectBatch(imgs[start:end]))
	}
	return dets
}

// EvaluateDetector runs a detector over frames and scores it against their
// ground truth. Detectors that implement BatchDetector (the grid detectors
// do) are driven in batches.
func EvaluateDetector(d Detector, frames []*synth.Frame, iouThr float64) EvalResult {
	imgs := make([]*synth.Image, len(frames))
	truth := make([][]synth.Box, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
		truth[i] = f.Boxes
	}
	return MeanAveragePrecision(detectAll(d, imgs), truth, iouThr)
}

// CountClass counts detections of a class above a score threshold — the
// primitive behind the paper's aggregation queries (§6.6).
func CountClass(dets []Detection, class int, minScore float64) int {
	n := 0
	for _, d := range dets {
		if d.Box.Class == class && d.Score >= minScore {
			n++
		}
	}
	return n
}
