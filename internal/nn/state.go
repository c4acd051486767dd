package nn

import "fmt"

// NetState is a value snapshot of everything that shapes a network's
// inference behaviour: the float64 master parameter tensors plus the
// non-parameter layer state that Params() does not reach (BatchNorm running
// statistics). Optimizer moments are deliberately not captured — a restored
// network serves inference bit-identically; resumed training restarts its
// optimizer state. All fields are exported so the struct gob-encodes.
type NetState struct {
	Name string
	// Params holds one entry per net.Params() element, in traversal order:
	// the parameter name, its shape, and a copy of the float64 master values.
	Params []ParamState
	// BatchNorms holds, per BatchNorm layer in depth-first layer order, the
	// running mean/variance vectors that accumulate outside Params().
	BatchNorms []BatchNormState
}

// ParamState is one parameter tensor's snapshot.
type ParamState struct {
	Name string
	Rows int
	Cols int
	W    []float64
}

// BatchNormState is the running-statistics snapshot of one BatchNorm layer.
type BatchNormState struct {
	RunMean []float64
	RunVar  []float64
}

// CaptureState snapshots net into a NetState. The copy is deep: mutating the
// network afterwards does not alter the snapshot.
func CaptureState(net *Network) NetState {
	st := NetState{Name: net.Name}
	for _, p := range net.Params() {
		w := make([]float64, len(p.W.V))
		copy(w, p.W.V)
		st.Params = append(st.Params, ParamState{
			Name: p.Name,
			Rows: p.W.R,
			Cols: p.W.C,
			W:    w,
		})
	}
	for _, bn := range collectBatchNorms(net) {
		mean := make([]float64, len(bn.RunMean))
		copy(mean, bn.RunMean)
		vari := make([]float64, len(bn.RunVar))
		copy(vari, bn.RunVar)
		st.BatchNorms = append(st.BatchNorms, BatchNormState{RunMean: mean, RunVar: vari})
	}
	return st
}

// RestoreState loads a snapshot captured by CaptureState into net. The
// network must have been built with the same architecture: parameter count,
// shapes and BatchNorm layout are checked and a descriptive error returned on
// mismatch.
func RestoreState(net *Network, st NetState) error {
	params := net.Params()
	if len(params) != len(st.Params) {
		return fmt.Errorf("nn: restore %q: have %d params, snapshot has %d", net.Name, len(params), len(st.Params))
	}
	for i, p := range params {
		ps := st.Params[i]
		if p.W.R != ps.Rows || p.W.C != ps.Cols {
			return fmt.Errorf("nn: restore %q: param %d (%s) is %dx%d, snapshot is %dx%d",
				net.Name, i, p.Name, p.W.R, p.W.C, ps.Rows, ps.Cols)
		}
	}
	bns := collectBatchNorms(net)
	if len(bns) != len(st.BatchNorms) {
		return fmt.Errorf("nn: restore %q: have %d batchnorm layers, snapshot has %d", net.Name, len(bns), len(st.BatchNorms))
	}
	for i, bn := range bns {
		bs := st.BatchNorms[i]
		if len(bn.RunMean) != len(bs.RunMean) || len(bn.RunVar) != len(bs.RunVar) {
			return fmt.Errorf("nn: restore %q: batchnorm %d dim mismatch (%d/%d vs snapshot %d/%d)",
				net.Name, i, len(bn.RunMean), len(bn.RunVar), len(bs.RunMean), len(bs.RunVar))
		}
	}
	// All shapes verified; now mutate.
	for i, p := range params {
		copy(p.W.V, st.Params[i].W)
	}
	for i, bn := range bns {
		copy(bn.RunMean, st.BatchNorms[i].RunMean)
		copy(bn.RunVar, st.BatchNorms[i].RunVar)
	}
	return nil
}

// collectBatchNorms walks layers depth-first (recursing into nested
// Networks, mirroring Network.Params traversal order) and returns every
// BatchNorm layer.
func collectBatchNorms(net *Network) []*BatchNorm {
	var out []*BatchNorm
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *BatchNorm:
			out = append(out, v)
		case *Network:
			for _, ll := range v.Layers {
				walk(ll)
			}
		}
	}
	for _, l := range net.Layers {
		walk(l)
	}
	return out
}
