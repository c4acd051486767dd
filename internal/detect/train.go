package detect

import (
	"odin/internal/nn"
	"odin/internal/synth"
)

// Sample pairs a frame image with its training boxes (ground truth for
// specialized training, teacher outputs for distillation).
type Sample struct {
	Image *synth.Image
	Boxes []synth.Box
}

// SamplesFromFrames converts frames with ground truth into training
// samples — the oracle-label path of §5.2.
func SamplesFromFrames(frames []*synth.Frame) []Sample {
	out := make([]Sample, len(frames))
	for i, f := range frames {
		out[i] = Sample{Image: f.Image, Boxes: f.Boxes}
	}
	return out
}

// DistillSamples labels frames with a teacher's detections instead of
// ground truth — the student-teacher path used to train YOLO-Lite without
// oracle labels (§5.2). Only confident teacher detections become labels.
// Batch-capable teachers label whole frame batches per network pass.
func DistillSamples(teacher Detector, frames []*synth.Frame, minScore float64) []Sample {
	imgs := make([]*synth.Image, len(frames))
	for i, f := range frames {
		imgs[i] = f.Image
	}
	dets := detectAll(teacher, imgs)
	out := make([]Sample, len(frames))
	for i, f := range frames {
		var boxes []synth.Box
		for _, d := range dets[i] {
			if d.Score >= minScore {
				boxes = append(boxes, d.Box)
			}
		}
		out[i] = Sample{Image: f.Image, Boxes: boxes}
	}
	return out
}

// TrainEpoch runs one epoch of minibatch training and returns the mean
// loss per sample.
func (g *GridDetector) TrainEpoch(samples []Sample, batch int) float64 {
	if batch <= 0 {
		batch = 16
	}
	perm := g.rng.Perm(len(samples))
	var total float64
	count := 0
	for start := 0; start < len(perm); start += batch {
		end := start + batch
		if end > len(perm) {
			end = len(perm)
		}
		idx := perm[start:end]
		x := loadRows(len(idx), samples[0].Image.Dim(),
			func(i int) []float64 { return samples[idx[i]].Image.Flat() })
		out := g.Net.Forward(x, true)
		grad := nn.GetMatRaw(out.R, out.C)
		for i, id := range idx {
			target, objMask := g.buildTargets(samples[id].Boxes)
			loss, gr := g.lossGrad(out.Row(i), target, objMask)
			total += loss
			grad.SetRow(i, gr)
			count++
		}
		// Mean gradient over the batch.
		grad.Scale(1 / float64(len(idx)))
		g.Net.ZeroGrad()
		dx := g.Net.Backward(grad)
		nn.ClipGrads(g.Net.Params(), 10)
		g.opt.Step(g.Net.Params())
		nn.Recycle(x, out, grad, dx)
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Fit trains for the given number of epochs and returns the final epoch's
// mean loss.
func (g *GridDetector) Fit(samples []Sample, epochs, batch int) float64 {
	var last float64
	for e := 0; e < epochs; e++ {
		last = g.TrainEpoch(samples, batch)
	}
	return last
}
