package query

import (
	"odin/internal/nn"
	"odin/internal/synth"
	"odin/internal/tensor"
)

// FilterNet is the lightweight class-presence DNN of §6.6: a small conv
// network (3 conv layers in the paper) that predicts whether a frame
// contains any instance of a target class, letting the engine skip the
// heavyweight detector on empty frames. ODIN-PP uses one unspecialized
// filter; ODIN-FILTER trains one per cluster.
type FilterNet struct {
	Class     int
	Threshold float64
	Net       *nn.Network

	h, w int
	opt  *nn.Adam
	rng  *tensor.RNG
}

// NewFilterNet builds a 3-conv-layer presence filter for a class.
func NewFilterNet(class, h, w int, seed uint64) *FilterNet {
	rng := tensor.NewRNG(seed)
	c1 := nn.NewConv2D(3, h, w, 6, 3, 2, 1, rng)
	c2 := nn.NewConv2D(6, c1.OutH, c1.OutW, 8, 3, 2, 1, rng)
	c3 := nn.NewConv2D(8, c2.OutH, c2.OutW, 8, 3, 2, 1, rng)
	net := nn.NewNetwork("filter",
		c1, nn.NewLeakyReLU(0.1),
		c2, nn.NewLeakyReLU(0.1),
		c3, nn.NewLeakyReLU(0.1),
		nn.NewDense(c3.OutSize(), 1, rng),
		nn.NewSigmoid(),
	)
	return &FilterNet{
		Class:     class,
		Threshold: 0.5,
		Net:       net,
		h:         h,
		w:         w,
		opt:       nn.NewAdam(0.002),
		rng:       rng,
	}
}

// Fit trains the filter on frames labelled by ground-truth class presence.
func (f *FilterNet) Fit(frames []*synth.Frame, epochs, batch int) float64 {
	if batch <= 0 {
		batch = 16
	}
	labels := make([]float64, len(frames))
	for i, fr := range frames {
		for _, b := range fr.Boxes {
			if b.Class == f.Class {
				labels[i] = 1
				break
			}
		}
	}
	var last float64
	for e := 0; e < epochs; e++ {
		perm := f.rng.Perm(len(frames))
		var total float64
		nb := 0
		for start := 0; start < len(perm); start += batch {
			end := start + batch
			if end > len(perm) {
				end = len(perm)
			}
			idx := perm[start:end]
			x := nn.GetMatRaw(len(idx), frames[0].Image.Dim())
			y := nn.GetMat(len(idx), 1)
			for i, id := range idx {
				copy(x.Row(i), frames[id].Image.Flat())
				y.Set(i, 0, labels[id])
			}
			out := f.Net.Forward(x, true)
			loss, grad := nn.BCE(out, y)
			total += loss
			nb++
			f.Net.ZeroGrad()
			dx := f.Net.Backward(grad)
			f.opt.Step(f.Net.Params())
			nn.Recycle(x, y, out, grad, dx)
		}
		last = total / float64(nb)
	}
	return last
}

// Pass reports whether the frame likely contains the target class.
func (f *FilterNet) Pass(fr *synth.Frame) bool {
	out := f.Net.Predict(tensor.FromVec(fr.Image.Flat()))
	return out.V[0] >= f.Threshold
}
