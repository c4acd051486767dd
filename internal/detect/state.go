package detect

import (
	"fmt"

	"odin/internal/nn"
)

// State is a value snapshot of a GridDetector: architecture config, decode
// thresholds, training RNG and the full network state (weights plus
// BatchNorm running statistics — the part the params-only weight files
// miss). Optimizer moments are not captured; a restored detector serves
// inference bit-identically, resumed training restarts Adam.
type State struct {
	Cfg            GridConfig
	ScoreThreshold float64
	NMSIoU         float64
	RNG            uint64
	Net            nn.NetState
}

// State snapshots the detector.
func (g *GridDetector) State() State {
	return State{
		Cfg:            g.Cfg,
		ScoreThreshold: g.ScoreThreshold,
		NMSIoU:         g.NMSIoU,
		RNG:            g.rng.State(),
		Net:            nn.CaptureState(g.Net),
	}
}

// FromState rebuilds a detector from a snapshot: the backbone is rebuilt
// from st.Cfg (validating the stored weight shapes against it) and the
// stored weights and running statistics loaded over it.
func FromState(st State) (*GridDetector, error) {
	if len(st.Cfg.Channels) != len(st.Cfg.Strides) || len(st.Cfg.Channels) == 0 {
		return nil, fmt.Errorf("detect: restore: invalid grid config %+v", st.Cfg)
	}
	g := NewGridDetector(st.Cfg)
	g.ScoreThreshold = st.ScoreThreshold
	g.NMSIoU = st.NMSIoU
	g.rng.SetState(st.RNG)
	if err := nn.RestoreState(g.Net, st.Net); err != nil {
		return nil, err
	}
	return g, nil
}
