package detect

import (
	"fmt"
	"strings"
	"testing"

	"odin/internal/guardpage"
	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// The serving path of a detector — frames read where they lie, the
// convolutions run window-free and a sample at a time through the whole
// backbone — against the network's layers run one by one on a stacked batch.
// The benchmark cannot see a difference here (its quick-bootstrap models
// fire no grid cell), so these tests raise the objectness bias until decode
// has boxes to compare.

// firingDetector builds cfg's detector, untrained, with the head's
// objectness bias raised so that most cells clear the score threshold.
func firingDetector(cfg GridConfig) *GridDetector {
	g := NewGridDetector(cfg)
	head := g.Net.Layers[len(g.Net.Layers)-1].(*nn.Conv2D)
	head.Bias.W.V[0] = 2 // channel 0 is the objectness logit
	return g
}

// headRows runs the detector's layers one by one — no fusion, no run, every
// intermediate a whole batch matrix — on the frames stacked into a batch.
func headRows(g *GridDetector, imgs []*synth.Image) *tensor.Mat {
	x := loadRows(len(imgs), imgs[0].Dim(), func(i int) []float64 { return imgs[i].Flat() })
	for _, l := range g.Net.Layers {
		x = l.Forward(x, false)
	}
	return x
}

func sameDetections(a, b []Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDetectBatchParity: DetectBatch ≡ Detect frame by frame ≡ decode of the
// layer-by-layer head rows, and CountBatch counts exactly those boxes — for
// the pruned, the distilled and the BatchNorm-carrying configuration, at a
// single frame and at a block with a remainder.
func TestDetectBatchParity(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	imgs := countTestImgs(11)
	for _, cfg := range []GridConfig{SpecializedConfig(scene.H, scene.W), LiteConfig(scene.H, scene.W), YOLOConfig(scene.H, scene.W)} {
		g := firingDetector(cfg)
		name := fmt.Sprint(cfg.Kind)
		for _, n := range []int{1, len(imgs)} {
			batch := g.DetectBatch(imgs[:n])
			counts := g.CountBatch(imgs[:n], -1, 0)
			rows := headRows(g, imgs[:n])
			fired := 0
			for i := 0; i < n; i++ {
				fired += len(batch[i])
				if single := g.Detect(imgs[i]); !sameDetections(batch[i], single) {
					t.Fatalf("%s n=%d frame %d: DetectBatch has %d boxes, Detect %d, or they differ", name, n, i, len(batch[i]), len(single))
				}
				if want := g.decode(rows.Row(i)); !sameDetections(batch[i], want) {
					t.Fatalf("%s n=%d frame %d: DetectBatch differs from the layers run one by one (%d boxes against %d)", name, n, i, len(batch[i]), len(want))
				}
				if counts[i] != len(batch[i]) {
					t.Fatalf("%s n=%d frame %d: CountBatch %d, DetectBatch has %d boxes", name, n, i, counts[i], len(batch[i]))
				}
			}
			if fired == 0 {
				t.Fatalf("%s n=%d: no cell fired: the comparison is empty", name, n)
			}
		}
	}
}

// TestDetectBatchShortFramePanics: a frame whose Dim() is not the network's
// input — one column short, its pixels flush against a guard page — must end
// in the shape panic on every batch entry point, never in a fault.
func TestDetectBatchShortFramePanics(t *testing.T) {
	scene := synth.DefaultSceneConfig()
	good := countTestImgs(1)[0]
	pix, free := guardpage.Alloc(3 * scene.H * (scene.W - 1))
	defer free()
	short := &synth.Image{C: 3, H: scene.H, W: scene.W - 1, Pix: pix}
	g := NewGridDetector(SpecializedConfig(scene.H, scene.W))
	for name, fn := range map[string]func(){
		"DetectBatch": func() { g.DetectBatch([]*synth.Image{good, short}) },
		"CountBatch":  func() { g.CountBatch([]*synth.Image{short, good}, -1, 0) },
		"Detect":      func() { g.Detect(short) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "width") {
					t.Fatalf("%s: recovered %q, want the input-width panic", name, msg)
				}
			}()
			fn()
		}()
	}
}
