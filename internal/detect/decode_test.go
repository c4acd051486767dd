package detect

import (
	"sort"
	"testing"

	"odin/internal/nn"
	"odin/internal/synth"
)

// refDecode is the reference decoder the serving path is pinned to: a plain
// transcription of the head layout that allocates freely — fresh logits
// and probabilities per firing cell, a fresh box slice per frame — and
// suppresses with refNMS.
func refDecode(g *GridDetector, row []float64) []Detection {
	cellW := float64(g.Cfg.W) / float64(g.GW)
	cellH := float64(g.Cfg.H) / float64(g.GH)
	var dets []Detection
	for gy := 0; gy < g.GH; gy++ {
		for gx := 0; gx < g.GW; gx++ {
			obj := nn.SigmoidScalar(row[g.cellIndex(0, gy, gx)])
			if obj < g.ScoreThreshold {
				continue
			}
			logits := make([]float64, g.Cfg.Classes)
			for c := 0; c < g.Cfg.Classes; c++ {
				logits[c] = row[g.cellIndex(1+c, gy, gx)]
			}
			probs := make([]float64, g.Cfg.Classes)
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
				Box:   synth.Box{Class: bestC, X: cx - w/2, Y: cy - h/2, W: w, H: h},
				Score: obj * bestP,
			})
		}
	}
	return refNMS(dets, g.NMSIoU)
}

// refNMS is per-class non-maximum suppression by the textbook recipe:
// sort.SliceStable by descending score, then mark every box a kept box of
// its class overlaps by more than iouThr.
func refNMS(dets []Detection, iouThr float64) []Detection {
	sort.SliceStable(dets, func(a, b int) bool { return dets[a].Score > dets[b].Score })
	var keep []Detection
	suppressed := make([]bool, len(dets))
	for i := range dets {
		if suppressed[i] {
			continue
		}
		keep = append(keep, dets[i])
		for j := i + 1; j < len(dets); j++ {
			if suppressed[j] || dets[j].Box.Class != dets[i].Box.Class {
				continue
			}
			if dets[i].Box.IoU(dets[j].Box) > iouThr {
				suppressed[j] = true
			}
		}
	}
	return keep
}

// TestDecodeScoreTieKeepsDecodeOrder hand-builds a head row in which two
// same-class boxes in neighbouring cells tie on score and overlap, and a
// stronger box of another class decodes after them. The sort must move the
// stronger box to the front without swapping the tied pair, so the first
// cell's box survives and the second's is suppressed.
func TestDecodeScoreTieKeepsDecodeOrder(t *testing.T) {
	g := NewGridDetector(tinySpecConfig())
	row := make([]float64, g.Cfg.cellChannels()*g.GH*g.GW)
	for cell := 0; cell < g.GH*g.GW; cell++ {
		row[cell] = -20 // channel 0: objectness far below the threshold
	}
	off := 1 + g.Cfg.Classes
	fire := func(gy, gx int, objLogit float64, class int, sizeLogit float64) {
		row[g.cellIndex(0, gy, gx)] = objLogit
		row[g.cellIndex(1+class, gy, gx)] = 5
		row[g.cellIndex(off+2, gy, gx)] = sizeLogit
		row[g.cellIndex(off+3, gy, gx)] = sizeLogit
	}
	// Two half-frame boxes one cell apart (IoU ≈ 0.71), equal scores.
	fire(0, 0, 1, synth.ClassCar, 0)
	fire(0, 1, 1, synth.ClassCar, 0)
	// A small, stronger box of another class, decoded last.
	fire(g.GH-1, g.GW-1, 3, synth.ClassTruck, -5)

	sc := new(decodeScratch)
	got := g.decodeRow(row, sc)
	if len(got) != 2 {
		t.Fatalf("decodeRow kept %d boxes, want the truck and one of the tied cars", len(got))
	}
	if got[0].Box.Class != synth.ClassTruck || got[1].Box.Class != synth.ClassCar {
		t.Fatalf("kept classes %d, %d: want truck then car", got[0].Box.Class, got[1].Box.Class)
	}
	cellW := float64(g.Cfg.W) / float64(g.GW)
	if want := 0.5*cellW - got[1].Box.W/2; got[1].Box.X != want {
		t.Fatalf("the surviving car starts at x=%v, want %v (cell 0's box): the tie was reordered", got[1].Box.X, want)
	}
	if want := refDecode(g, row); !sameDetections(got, want) {
		t.Fatalf("decodeRow %v, reference %v", got, want)
	}
}
