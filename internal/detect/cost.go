package detect

import "fmt"

// ConvSpec describes one convolutional layer of a full-scale architecture:
// In→Out channels, K×K kernel, stride, and an optional following 2×2
// pooling step (PoolAfter == 2 halves the spatial dims).
type ConvSpec struct {
	In, Out   int
	K         int
	Stride    int
	PoolAfter int // 1 (or 0) = none, 2 = halve spatial dims after this layer

	// AtH/AtW, when non-zero, pin this layer's input resolution — used for
	// detection-head branches that run at an upsampled scale rather than
	// the backbone's sequential resolution.
	AtH, AtW int
}

// Arch is an analytic description of a full-scale detector architecture —
// the paper's YOLOv3 / YOLOv3-tiny / pruned-tiny networks — from which
// parameter counts, per-frame FLOPs, model size and simulated throughput
// are derived. Accuracy in this repository comes from really training the
// miniature GridDetector; throughput and memory are architecture
// properties, so they are computed from the very layer structures the
// paper reports (see DESIGN.md §1).
type Arch struct {
	Name           string
	InputH, InputW int
	Layers         []ConvSpec
}

// Params returns the number of weights (kernels + biases).
func (a Arch) Params() int64 {
	var total int64
	for _, l := range a.Layers {
		total += int64(l.K*l.K*l.In*l.Out) + int64(l.Out)
	}
	return total
}

// SizeMB returns the fp32 model size in megabytes.
func (a Arch) SizeMB() float64 {
	return float64(a.Params()) * 4 / (1024 * 1024)
}

// FLOPs returns multiply-add operations (counted as 2 FLOPs) per frame.
func (a Arch) FLOPs() int64 {
	h, w := a.InputH, a.InputW
	var total int64
	for _, l := range a.Layers {
		if l.AtH > 0 {
			h, w = l.AtH, l.AtW
		}
		stride := l.Stride
		if stride <= 0 {
			stride = 1
		}
		oh := (h + stride - 1) / stride
		ow := (w + stride - 1) / stride
		total += 2 * int64(l.K*l.K*l.In*l.Out) * int64(oh*ow)
		h, w = oh, ow
		if l.PoolAfter == 2 {
			h = (h + 1) / 2
			w = (w + 1) / 2
		}
	}
	return total
}

// String summarises the architecture.
func (a Arch) String() string {
	return fmt.Sprintf("%s(%d conv layers, %.1fM params, %.1f GFLOPs)",
		a.Name, len(a.Layers), float64(a.Params())/1e6, float64(a.FLOPs())/1e9)
}

// Device is a simulated accelerator with an effective throughput and a
// fixed per-frame overhead (kernel launch, transfer, NMS).
type Device struct {
	Name             string
	FLOPS            float64 // effective sustained FLOP/s
	PerFrameOverhead float64 // seconds
}

// FPS returns the simulated frames-per-second of an architecture on the
// device.
func (d Device) FPS(a Arch) float64 {
	t := float64(a.FLOPs())/d.FLOPS + d.PerFrameOverhead
	return 1 / t
}

// PaperDevice returns the simulated accelerator calibrated on exactly two
// of the paper's Table 4 measurements — YOLOv3 at 24 FPS and YOLOv3-tiny
// at 140 FPS on a Tesla P100 — by solving for effective FLOP/s and
// per-frame overhead. The third row (pruned tiny at 144 FPS) is then a
// genuine prediction of the cost model.
func PaperDevice() Device {
	return Device{
		Name:             "sim-P100",
		FLOPS:            1.75e12,  // effective sustained throughput
		PerFrameOverhead: 0.003945, // ≈4 ms launch/transfer/NMS overhead
	}
}

// YOLOv3Arch approximates the full YOLOv3 network (darknet-53 backbone plus
// detection heads) at 416×416 — the paper's heavyweight baseline, ≈62M
// parameters / ≈237 MB / ≈66 GFLOPs.
func YOLOv3Arch() Arch {
	var ls []ConvSpec
	conv := func(in, out, k, s int) {
		ls = append(ls, ConvSpec{In: in, Out: out, K: k, Stride: s})
	}
	res := func(ch, n int) {
		for i := 0; i < n; i++ {
			conv(ch, ch/2, 1, 1)
			conv(ch/2, ch, 3, 1)
		}
	}
	conv(3, 32, 3, 1)
	conv(32, 64, 3, 2)
	res(64, 1)
	conv(64, 128, 3, 2)
	res(128, 2)
	conv(128, 256, 3, 2)
	res(256, 8)
	conv(256, 512, 3, 2)
	res(512, 8)
	conv(512, 1024, 3, 2)
	res(1024, 4)
	// Detection head, large scale (13×13).
	conv(1024, 512, 1, 1)
	conv(512, 1024, 3, 1)
	conv(1024, 512, 1, 1)
	conv(512, 1024, 3, 1)
	conv(1024, 512, 1, 1)
	conv(512, 1024, 3, 1)
	conv(1024, 255, 1, 1)
	// Medium-scale head (26×26 after upsample + concat with the 512-wide
	// backbone feature).
	at := func(in, out, k, h int) {
		ls = append(ls, ConvSpec{In: in, Out: out, K: k, Stride: 1, AtH: h, AtW: h})
	}
	at(512, 256, 1, 13) // upsample feeder
	at(768, 256, 1, 26)
	at(256, 512, 3, 26)
	at(512, 256, 1, 26)
	at(256, 512, 3, 26)
	at(512, 256, 1, 26)
	at(256, 512, 3, 26)
	at(512, 255, 1, 26)
	// Small-scale head (52×52).
	at(256, 128, 1, 26) // upsample feeder
	at(384, 128, 1, 52)
	at(128, 256, 3, 52)
	at(256, 128, 1, 52)
	at(128, 256, 3, 52)
	at(256, 128, 1, 52)
	at(128, 256, 3, 52)
	at(256, 255, 1, 52)
	return Arch{Name: "YOLOv3", InputH: 416, InputW: 416, Layers: ls}
}

// YOLOv3TinyArch approximates YOLOv3-tiny at 416×416 — the architecture
// of YOLO-LITE, ≈8.8M parameters / ≈35 MB / ≈5.6 GFLOPs.
func YOLOv3TinyArch() Arch {
	ls := []ConvSpec{
		{In: 3, Out: 16, K: 3, Stride: 1, PoolAfter: 2},    // 416 → 208
		{In: 16, Out: 32, K: 3, Stride: 1, PoolAfter: 2},   // 208 → 104
		{In: 32, Out: 64, K: 3, Stride: 1, PoolAfter: 2},   // 104 → 52
		{In: 64, Out: 128, K: 3, Stride: 1, PoolAfter: 2},  // 52 → 26
		{In: 128, Out: 256, K: 3, Stride: 1, PoolAfter: 2}, // 26 → 13
		{In: 256, Out: 512, K: 3, Stride: 1},
		{In: 512, Out: 1024, K: 3, Stride: 1},
		{In: 1024, Out: 256, K: 1, Stride: 1},
		{In: 256, Out: 512, K: 3, Stride: 1},
		{In: 512, Out: 255, K: 1, Stride: 1},
		// Second-scale branch at 26×26.
		{In: 256, Out: 128, K: 1, Stride: 1, AtH: 13, AtW: 13},
		{In: 384, Out: 256, K: 3, Stride: 1, AtH: 26, AtW: 26},
		{In: 256, Out: 255, K: 1, Stride: 1, AtH: 26, AtW: 26},
	}
	return Arch{Name: "YOLOv3-tiny", InputH: 416, InputW: 416, Layers: ls}
}

// PrunedTinyArch is the 9-conv-layer pruned network of YOLO-SPECIALIZED
// (§5.2: "YOLO-SPECIALIZED only contains 9 convolutional layers", batch
// normalisation removed) — ≈34 MB, slightly cheaper than tiny.
func PrunedTinyArch() Arch {
	ls := []ConvSpec{
		{In: 3, Out: 16, K: 3, Stride: 1, PoolAfter: 2},    // 416 → 208
		{In: 16, Out: 32, K: 3, Stride: 1, PoolAfter: 2},   // 208 → 104
		{In: 32, Out: 64, K: 3, Stride: 1, PoolAfter: 2},   // 104 → 52
		{In: 64, Out: 128, K: 3, Stride: 1, PoolAfter: 2},  // 52 → 26
		{In: 128, Out: 256, K: 3, Stride: 1, PoolAfter: 2}, // 26 → 13
		{In: 256, Out: 512, K: 3, Stride: 1},
		{In: 512, Out: 1280, K: 3, Stride: 1},
		{In: 1280, Out: 896, K: 1, Stride: 1},
		{In: 896, Out: 255, K: 1, Stride: 1},
	}
	return Arch{Name: "pruned-tiny", InputH: 416, InputW: 416, Layers: ls}
}

// ArchForKind maps a model kind to its full-scale architecture.
func ArchForKind(k Kind) Arch {
	switch k {
	case KindYOLO:
		return YOLOv3Arch()
	case KindSpecialized:
		return PrunedTinyArch()
	default:
		return YOLOv3TinyArch()
	}
}

// Cost summarises a model's simulated deployment footprint.
type Cost struct {
	SizeMB float64
	FPS    float64
	Params int64
	GFLOPs float64
}

// CostOf returns the simulated cost of a model kind on the paper's device.
func CostOf(k Kind) Cost {
	a := ArchForKind(k)
	d := PaperDevice()
	return Cost{
		SizeMB: a.SizeMB(),
		FPS:    d.FPS(a),
		Params: a.Params(),
		GFLOPs: float64(a.FLOPs()) / 1e9,
	}
}
