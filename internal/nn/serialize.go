package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// weightsBlob is the on-wire representation of a network's parameters.
type weightsBlob struct {
	Name   string
	Shapes [][2]int
	Values [][]float64
}

// SaveWeights serialises all parameters of net to w (gob encoding). Only
// weights are stored; the caller must rebuild the same architecture before
// calling LoadWeights.
func SaveWeights(net *Network, w io.Writer) error {
	ps := net.Params()
	blob := weightsBlob{Name: net.Name}
	for _, p := range ps {
		blob.Shapes = append(blob.Shapes, [2]int{p.W.R, p.W.C})
		vals := make([]float64, len(p.W.V))
		copy(vals, p.W.V)
		blob.Values = append(blob.Values, vals)
	}
	return gob.NewEncoder(w).Encode(blob)
}

// LoadWeights restores parameters previously written with SaveWeights into
// net. The architectures must match exactly.
func LoadWeights(net *Network, r io.Reader) error {
	var blob weightsBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return fmt.Errorf("nn: decode weights: %w", err)
	}
	ps := net.Params()
	if len(ps) != len(blob.Values) {
		return fmt.Errorf("nn: weight count mismatch: net has %d tensors, blob has %d", len(ps), len(blob.Values))
	}
	for i, p := range ps {
		sh := blob.Shapes[i]
		if p.W.R != sh[0] || p.W.C != sh[1] {
			return fmt.Errorf("nn: tensor %d shape mismatch: net %dx%d, blob %dx%d", i, p.W.R, p.W.C, sh[0], sh[1])
		}
		copy(p.W.V, blob.Values[i])
	}
	return nil
}
