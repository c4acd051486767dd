// Package detect is the object-detection substrate standing in for the
// paper's YOLOv3 family (§5.2): a trainable single-pass grid detector
// (miniature YOLO) in three capacities — YOLO (heavyweight baseline),
// YOLO-Specialized (pruned, per-cluster) and YOLO-Lite (student distilled
// from YOLO outputs) — plus mAP evaluation and an analytic architecture
// cost model that reproduces the paper's throughput and memory numbers
// from its reported layer structures.
package detect

import (
	"fmt"
	"math"
	"sort"

	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// Detection is one predicted box with a confidence score.
type Detection struct {
	Box   synth.Box
	Score float64
}

// Detector is anything that can find objects in a frame. The ODIN core and
// the query engine depend only on this interface.
type Detector interface {
	Detect(img *synth.Image) []Detection
}

// BatchDetector is implemented by detectors that can amortise network
// overhead across many frames at once; evaluation and distillation prefer
// it when available.
type BatchDetector interface {
	Detector
	DetectBatch(imgs []*synth.Image) [][]Detection
}

// Kind labels the three model families of §5.2.
type Kind int

// Model kinds.
const (
	KindYOLO        Kind = iota // heavyweight baseline
	KindSpecialized             // pruned per-cluster model
	KindLite                    // distilled student
)

// String returns the paper's model name.
func (k Kind) String() string {
	switch k {
	case KindYOLO:
		return "YOLO"
	case KindSpecialized:
		return "YOLO-SPECIALIZED"
	case KindLite:
		return "YOLO-LITE"
	}
	return "unknown"
}

// GridConfig describes a grid detector network.
type GridConfig struct {
	Kind    Kind
	H, W    int // input frame size
	Classes int

	// Channels per backbone conv layer; layer i halves the spatial
	// resolution when Strides[i] == 2.
	Channels []int
	Strides  []int

	// BatchNorm inserts batch normalisation after each backbone conv. The
	// paper's heavyweight YOLO uses it; the pruned specialized models drop
	// it (§5.2).
	BatchNorm bool

	LR   float64
	Seed uint64
}

// YOLOConfig returns the heavyweight baseline configuration.
func YOLOConfig(h, w int) GridConfig {
	return GridConfig{
		Kind: KindYOLO, H: h, W: w, Classes: synth.NumClasses,
		Channels:  []int{16, 24, 24},
		Strides:   []int{2, 2, 1},
		BatchNorm: true,
		LR:        0.002,
		Seed:      1,
	}
}

// SpecializedConfig returns the pruned per-cluster configuration: fewer
// layers and channels, no batch normalisation.
func SpecializedConfig(h, w int) GridConfig {
	return GridConfig{
		Kind: KindSpecialized, H: h, W: w, Classes: synth.NumClasses,
		Channels:  []int{10, 14},
		Strides:   []int{2, 2},
		BatchNorm: false,
		LR:        0.003,
		Seed:      2,
	}
}

// LiteConfig returns the distillation-student configuration (same shape as
// Specialized, trained from teacher outputs).
func LiteConfig(h, w int) GridConfig {
	cfg := SpecializedConfig(h, w)
	cfg.Kind = KindLite
	cfg.Seed = 3
	return cfg
}

// GridDetector is a single-pass detector: a conv backbone reduces the frame
// to a GH×GW grid; a 1×1 conv head predicts, per cell, an objectness logit,
// class logits and a box (cx, cy offsets within the cell plus width/height
// relative to the frame) — the YOLO formulation of §5.2 at miniature scale.
type GridDetector struct {
	Cfg    GridConfig
	Net    *nn.Network
	GH, GW int

	// Decode thresholds.
	ScoreThreshold float64
	NMSIoU         float64

	opt *nn.Adam
	rng *tensor.RNG
}

// cellChannels returns the per-cell prediction width: 1 objectness +
// classes + 4 box parameters.
func (c GridConfig) cellChannels() int { return 1 + c.Classes + 4 }

// NewGridDetector builds the network from the configuration.
func NewGridDetector(cfg GridConfig) *GridDetector {
	if len(cfg.Channels) != len(cfg.Strides) || len(cfg.Channels) == 0 {
		panic(fmt.Sprintf("detect: invalid grid config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	var layers []nn.Layer
	inC, h, w := 3, cfg.H, cfg.W
	for i, ch := range cfg.Channels {
		conv := nn.NewConv2D(inC, h, w, ch, 3, cfg.Strides[i], 1, rng)
		layers = append(layers, conv)
		if cfg.BatchNorm {
			layers = append(layers, nn.NewBatchNorm(conv.OutSize()))
		}
		layers = append(layers, nn.NewLeakyReLU(0.1))
		inC, h, w = ch, conv.OutH, conv.OutW
	}
	head := nn.NewConv2D(inC, h, w, cfg.cellChannels(), 1, 1, 0, rng)
	layers = append(layers, head)
	return &GridDetector{
		Cfg:            cfg,
		Net:            nn.NewNetwork(cfg.Kind.String(), layers...),
		GH:             h,
		GW:             w,
		ScoreThreshold: 0.5,
		NMSIoU:         0.45,
		opt:            nn.NewAdam(cfg.LR),
		rng:            rng,
	}
}

// cellIndex returns the flattened output index of channel ch at grid cell
// (gy, gx). The head output is channel-major: ch × GH × GW.
func (g *GridDetector) cellIndex(ch, gy, gx int) int {
	return ch*g.GH*g.GW + gy*g.GW + gx
}

// loadRows stacks n flattened pixel rows into a workspace batch, for
// training; row(i) supplies the i-th row.
func loadRows(n, dim int, row func(i int) []float64) *tensor.Mat {
	m := nn.GetMatRaw(n, dim)
	for i := 0; i < n; i++ {
		m.SetRow(i, row(i))
	}
	return m
}

// predict runs the network on many frames at once, reading each where it
// lies in its image — the first convolution's phase split is the only pass
// over the pixels. The caller recycles the head output.
func (g *GridDetector) predict(imgs []*synth.Image) *tensor.Mat {
	rows := make([][]float64, len(imgs))
	for i, im := range imgs {
		rows[i] = im.Flat()
	}
	return g.Net.PredictRows(rows)
}

// Detect runs the network on one frame and decodes detections: a batch of
// one. It mutates no detector state, so concurrent calls on a shared
// detector are safe.
func (g *GridDetector) Detect(img *synth.Image) []Detection {
	return g.DetectBatch([]*synth.Image{img})[0]
}

// DetectBatch runs the network on many frames at once and decodes each
// frame's head row.
func (g *GridDetector) DetectBatch(imgs []*synth.Image) [][]Detection {
	if len(imgs) == 0 {
		return nil
	}
	out := g.predict(imgs)
	res := make([][]Detection, len(imgs))
	for i := range imgs {
		res[i] = g.decode(out.Row(i))
	}
	nn.Recycle(out)
	return res
}

// decode converts one raw head output row into thresholded, NMS-filtered
// detections.
func (g *GridDetector) decode(row []float64) []Detection {
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
			probs := nn.Softmax(logits)
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
				Score: obj * bestP, // C = P(obj) · P(class|obj)
			})
		}
	}
	return NMS(dets, g.NMSIoU)
}

// NMS applies per-class non-maximum suppression, keeping the highest-score
// box of each overlapping group. The sort is stable so the counting path
// (count.go), which sorts in place without allocating, suppresses exactly
// the same boxes on score ties.
func NMS(dets []Detection, iouThr float64) []Detection {
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

// buildTargets encodes ground-truth boxes into the head's target layout and
// an object mask. For each GT box, the cell containing its centre is
// responsible for predicting it.
func (g *GridDetector) buildTargets(boxes []synth.Box) (target []float64, objMask []bool) {
	n := g.Cfg.cellChannels() * g.GH * g.GW
	target = make([]float64, n)
	objMask = make([]bool, g.GH*g.GW)
	cellW := float64(g.Cfg.W) / float64(g.GW)
	cellH := float64(g.Cfg.H) / float64(g.GH)
	area := make([]float64, g.GH*g.GW)
	for _, b := range boxes {
		cx := b.X + b.W/2
		cy := b.Y + b.H/2
		gx := int(cx / cellW)
		gy := int(cy / cellH)
		if gx < 0 {
			gx = 0
		}
		if gx >= g.GW {
			gx = g.GW - 1
		}
		if gy < 0 {
			gy = 0
		}
		if gy >= g.GH {
			gy = g.GH - 1
		}
		cell := gy*g.GW + gx
		if objMask[cell] && area[cell] >= b.W*b.H {
			continue // keep the larger box when two centres collide
		}
		objMask[cell] = true
		area[cell] = b.W * b.H
		target[g.cellIndex(0, gy, gx)] = 1
		for c := 0; c < g.Cfg.Classes; c++ {
			target[g.cellIndex(1+c, gy, gx)] = 0
		}
		target[g.cellIndex(1+b.Class, gy, gx)] = 1
		off := 1 + g.Cfg.Classes
		target[g.cellIndex(off, gy, gx)] = cx/cellW - float64(gx)
		target[g.cellIndex(off+1, gy, gx)] = cy/cellH - float64(gy)
		target[g.cellIndex(off+2, gy, gx)] = b.W / float64(g.Cfg.W)
		target[g.cellIndex(off+3, gy, gx)] = b.H / float64(g.Cfg.H)
	}
	return target, objMask
}

// lossGrad computes the YOLO-style loss and its gradient for one sample:
// objectness BCE (down-weighted on empty cells), class cross-entropy and
// box regression on object cells.
func (g *GridDetector) lossGrad(row, target []float64, objMask []bool) (float64, []float64) {
	const (
		lambdaNoObj = 0.5
		lambdaCoord = 5.0
		lambdaClass = 1.0
	)
	grad := make([]float64, len(row))
	var loss float64
	cells := g.GH * g.GW
	for cell := 0; cell < cells; cell++ {
		gy := cell / g.GW
		gx := cell % g.GW
		oi := g.cellIndex(0, gy, gx)
		p := nn.SigmoidScalar(row[oi])
		t := target[oi]
		w := lambdaNoObj
		if objMask[cell] {
			w = 1
		}
		// BCE-with-logits on objectness.
		loss += w * (math.Max(row[oi], 0) - row[oi]*t + math.Log1p(math.Exp(-math.Abs(row[oi]))))
		grad[oi] = w * (p - t)

		if !objMask[cell] {
			continue
		}
		// Class cross-entropy over softmax.
		logits := make([]float64, g.Cfg.Classes)
		var tc int
		for c := 0; c < g.Cfg.Classes; c++ {
			logits[c] = row[g.cellIndex(1+c, gy, gx)]
			if target[g.cellIndex(1+c, gy, gx)] > 0.5 {
				tc = c
			}
		}
		probs := nn.Softmax(logits)
		loss += -lambdaClass * math.Log(math.Max(probs[tc], 1e-9))
		for c := 0; c < g.Cfg.Classes; c++ {
			ci := g.cellIndex(1+c, gy, gx)
			gval := probs[c]
			if c == tc {
				gval -= 1
			}
			grad[ci] = lambdaClass * gval
		}
		// Box regression: MSE on sigmoid-squashed offsets.
		off := 1 + g.Cfg.Classes
		for k := 0; k < 4; k++ {
			bi := g.cellIndex(off+k, gy, gx)
			pb := nn.SigmoidScalar(row[bi])
			tb := target[bi]
			d := pb - tb
			loss += lambdaCoord * d * d
			grad[bi] = lambdaCoord * 2 * d * pb * (1 - pb)
		}
	}
	return loss, grad
}
