package detect

import (
	"sync"

	"odin/internal/nn"
	"odin/internal/synth"
)

// This file is the detector half of the COUNT projection pushdown: when a
// query only wants counts, decoding every cell into freshly allocated
// Detection slices (plus per-cell logits and probabilities) is pure waste.
// CountBatch decodes into recycled scratch, suppresses in place and counts
// — no box materialisation, no per-frame allocation — while reproducing
// Detect's output exactly: the same decode arithmetic (SoftmaxInto shares
// the softmax op order), and a stable in-place sort matching NMS's
// sort.SliceStable so score ties suppress identically.

// countScratch recycles the per-row decode state of the counting path. A
// sync.Pool rather than the workspace pool because counting runs
// concurrently across stream shards and the slices are tiny.
type countScratch struct {
	dets       []Detection
	suppressed []bool
	logits     []float64
	probs      []float64
}

var countPool = sync.Pool{New: func() any { return new(countScratch) }}

// CountBatch counts, per image, the post-NMS detections that clear
// minScore and whose class matches class (class < 0 accepts every class).
// It is exactly len(DetectBatch output filtered by score and class) but
// materialises no Detection slices: one batched forward pass, then each
// row decodes into recycled scratch. Like Detect, it mutates no detector
// state and is safe for concurrent use.
func (g *GridDetector) CountBatch(imgs []*synth.Image, class int, minScore float64) []int {
	if len(imgs) == 0 {
		return nil
	}
	out := g.predict(imgs)
	counts := make([]int, len(imgs))
	sc := countPool.Get().(*countScratch)
	for i := range imgs {
		counts[i] = g.countRow(out.Row(i), class, minScore, sc)
	}
	countPool.Put(sc)
	nn.Recycle(out)
	return counts
}

// countRow decodes one head output row into sc's scratch, applies NMS in
// place and counts the survivors passing the score floor and class
// predicate. The arithmetic mirrors decode exactly.
func (g *GridDetector) countRow(row []float64, class int, minScore float64, sc *countScratch) int {
	cellW := float64(g.Cfg.W) / float64(g.GW)
	cellH := float64(g.Cfg.H) / float64(g.GH)
	if cap(sc.logits) < g.Cfg.Classes {
		sc.logits = make([]float64, g.Cfg.Classes)
		sc.probs = make([]float64, g.Cfg.Classes)
	}
	logits := sc.logits[:g.Cfg.Classes]
	probs := sc.probs[:g.Cfg.Classes]
	dets := sc.dets[:0]
	for gy := 0; gy < g.GH; gy++ {
		for gx := 0; gx < g.GW; gx++ {
			obj := nn.SigmoidScalar(row[g.cellIndex(0, gy, gx)])
			if obj < g.ScoreThreshold {
				continue
			}
			for c := 0; c < g.Cfg.Classes; c++ {
				logits[c] = row[g.cellIndex(1+c, gy, gx)]
			}
			nn.SoftmaxInto(probs, logits)
			bestC, bestP := 0, probs[0]
			for c, p := range probs {
				if p > bestP {
					bestC, bestP = c, p
				}
			}
			off := 1 + g.Cfg.Classes
			tx := nn.SigmoidScalar(row[g.cellIndex(off, gy, gx)])
			ty := nn.SigmoidScalar(row[g.cellIndex(off+1, gy, gx)])
			tw := nn.SigmoidScalar(row[g.cellIndex(off+2, gy, gx)])
			th := nn.SigmoidScalar(row[g.cellIndex(off+3, gy, gx)])
			w := tw * float64(g.Cfg.W)
			h := th * float64(g.Cfg.H)
			cx := (float64(gx) + tx) * cellW
			cy := (float64(gy) + ty) * cellH
			dets = append(dets, Detection{
				Box: synth.Box{
					Class: bestC,
					X:     cx - w/2, Y: cy - h/2, W: w, H: h,
				},
				Score: obj * bestP,
			})
		}
	}

	// Stable insertion sort by descending score — the same permutation
	// NMS's sort.SliceStable produces.
	for i := 1; i < len(dets); i++ {
		d := dets[i]
		j := i - 1
		for j >= 0 && dets[j].Score < d.Score {
			dets[j+1] = dets[j]
			j--
		}
		dets[j+1] = d
	}

	suppressed := sc.suppressed[:0]
	for range dets {
		suppressed = append(suppressed, false)
	}
	count := 0
	for i := range dets {
		if suppressed[i] {
			continue
		}
		if dets[i].Score >= minScore && (class < 0 || dets[i].Box.Class == class) {
			count++
		}
		for j := i + 1; j < len(dets); j++ {
			if suppressed[j] || dets[j].Box.Class != dets[i].Box.Class {
				continue
			}
			if dets[i].Box.IoU(dets[j].Box) > g.NMSIoU {
				suppressed[j] = true
			}
		}
	}
	sc.dets = dets
	sc.suppressed = suppressed
	return count
}
