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
	"sync"

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

	opt  *nn.Adam
	rng  *tensor.RNG
	loss *lossScratch // training only: made by TrainEpoch, dropped by Fit
}

// lossScratch is one sample's loss working set — its targets, object mask
// and box areas (buildTargets), one cell's class logits and probabilities
// (lossGrad) — sized by the head and cleared sample by sample.
type lossScratch struct {
	target, area  []float64
	objMask       []bool
	logits, probs []float64
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
// frame's head row. Each frame's boxes are a slice of their own, nil when
// none survive.
func (g *GridDetector) DetectBatch(imgs []*synth.Image) [][]Detection {
	if len(imgs) == 0 {
		return nil
	}
	res := make([][]Detection, len(imgs))
	g.decodeEach(imgs, func(i int, kept []Detection) {
		if len(kept) > 0 {
			res[i] = make([]Detection, len(kept))
			copy(res[i], kept)
		}
	})
	return res
}

// CountBatch counts, per image, the detections DetectBatch would return
// that clear minScore and match class (CountClass's predicate), without
// materialising them: the COUNT projection pushdown. Like Detect, it
// mutates no detector state and is safe for concurrent use.
func (g *GridDetector) CountBatch(imgs []*synth.Image, class int, minScore float64) []int {
	if len(imgs) == 0 {
		return nil
	}
	counts := make([]int, len(imgs))
	g.decodeEach(imgs, func(i int, kept []Detection) {
		counts[i] = CountClass(kept, class, minScore)
	})
	return counts
}

// decodeScratch is the working set of decodeRow: the candidate boxes and
// one cell's class logits and probabilities. It is pooled with sync.Pool
// rather than the workspace pool because decoding runs concurrently across
// stream shards and the slices are tiny.
type decodeScratch struct {
	dets          []Detection
	logits, probs []float64
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// decodeEach runs the network on imgs in one batched pass and hands each
// frame's post-NMS boxes to use. The boxes live in pooled scratch that the
// next frame overwrites.
func (g *GridDetector) decodeEach(imgs []*synth.Image, use func(i int, kept []Detection)) {
	out := g.predict(imgs)
	sc := decodePool.Get().(*decodeScratch)
	for i := range imgs {
		use(i, g.decodeRow(out.Row(i), sc))
	}
	decodePool.Put(sc)
	nn.Recycle(out)
}

// decodeRow converts one raw head output row into thresholded,
// NMS-filtered detections held in sc: each cell whose objectness clears
// ScoreThreshold proposes one box of its most probable class.
func (g *GridDetector) decodeRow(row []float64, sc *decodeScratch) []Detection {
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
			for c := range logits {
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
				Score: obj * bestP, // C = P(obj) · P(class|obj)
			})
		}
	}
	sc.dets = dets
	return suppress(dets, g.NMSIoU)
}

// NMS applies per-class non-maximum suppression in place (see suppress)
// and returns the survivors, highest score first; nil when dets is empty.
func NMS(dets []Detection, iouThr float64) []Detection {
	if kept := suppress(dets, iouThr); len(kept) > 0 {
		return kept
	}
	return nil
}

// suppress is per-class non-maximum suppression in place: a stable sort by
// descending score (so score ties keep their decode order), then each box
// survives unless a surviving box of its class overlaps it by more than
// iouThr. The survivors move to the front of dets, which is returned
// truncated to them.
func suppress(dets []Detection, iouThr float64) []Detection {
	for i := 1; i < len(dets); i++ {
		d := dets[i]
		j := i - 1
		for ; j >= 0 && dets[j].Score < d.Score; j-- {
			dets[j+1] = dets[j]
		}
		dets[j+1] = d
	}
	n := 0
next:
	for _, d := range dets {
		for _, k := range dets[:n] {
			if k.Box.Class == d.Box.Class && k.Box.IoU(d.Box) > iouThr {
				continue next
			}
		}
		dets[n] = d
		n++
	}
	return dets[:n]
}

// buildTargets encodes ground-truth boxes into the head's target layout and
// an object mask. For each GT box, the cell containing its centre is
// responsible for predicting it. Both results live in the detector's loss
// scratch, which the next call overwrites.
func (g *GridDetector) buildTargets(boxes []synth.Box) (target []float64, objMask []bool) {
	cells := g.GH * g.GW
	sc := g.loss
	if sc == nil {
		sc = &lossScratch{
			target:  make([]float64, g.Cfg.cellChannels()*cells),
			area:    make([]float64, cells),
			objMask: make([]bool, cells),
			logits:  make([]float64, g.Cfg.Classes),
			probs:   make([]float64, g.Cfg.Classes),
		}
		g.loss = sc
	}
	target, objMask, area := sc.target, sc.objMask, sc.area
	clear(target)
	clear(objMask)
	clear(area)
	cellW := float64(g.Cfg.W) / float64(g.GW)
	cellH := float64(g.Cfg.H) / float64(g.GH)
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

// lossGrad computes the YOLO-style loss for one sample and writes its
// gradient to grad, a row as wide as row: objectness BCE (down-weighted on
// empty cells), class cross-entropy and box regression on object cells.
// target and objMask come from buildTargets, whose scratch holds the class
// logits and probabilities too.
func (g *GridDetector) lossGrad(row, target []float64, objMask []bool, grad []float64) float64 {
	const (
		lambdaNoObj = 0.5
		lambdaCoord = 5.0
		lambdaClass = 1.0
	)
	clear(grad)
	logits, probs := g.loss.logits, g.loss.probs
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
		var tc int
		for c := 0; c < g.Cfg.Classes; c++ {
			logits[c] = row[g.cellIndex(1+c, gy, gx)]
			if target[g.cellIndex(1+c, gy, gx)] > 0.5 {
				tc = c
			}
		}
		nn.SoftmaxInto(probs, logits)
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
	return loss
}
