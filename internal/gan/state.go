package gan

import "odin/internal/nn"

// State is a value snapshot of a trained DA-GAN: the architecture config,
// all four networks' weights and the generator RNG. Optimizer moments are
// not captured — a restored DA-GAN projects bit-identically; resuming
// adversarial training restarts its Adam state.
type State struct {
	Cfg     Config
	LambdaR float64
	RNG     uint64
	Enc     nn.NetState
	Dec     nn.NetState
	DZ      nn.NetState
	DI      nn.NetState
}

// State snapshots the DA-GAN.
func (d *DAGAN) State() State {
	return State{
		Cfg:     d.Cfg,
		LambdaR: d.LambdaR,
		RNG:     d.rng.State(),
		Enc:     nn.CaptureState(d.Enc),
		Dec:     nn.CaptureState(d.Dec),
		DZ:      nn.CaptureState(d.DZ),
		DI:      nn.CaptureState(d.DI),
	}
}

// FromState rebuilds a DA-GAN from a snapshot: the architecture is rebuilt
// from st.Cfg (so weight shapes are validated against the config) and the
// stored weights loaded over it.
func FromState(st State) (*DAGAN, error) {
	if err := st.Cfg.validate(); err != nil {
		return nil, err
	}
	d := NewDAGAN(st.Cfg)
	d.LambdaR = st.LambdaR
	d.rng.SetState(st.RNG)
	for _, p := range []struct {
		net *nn.Network
		st  nn.NetState
	}{{d.Enc, st.Enc}, {d.Dec, st.Dec}, {d.DZ, st.DZ}, {d.DI, st.DI}} {
		if err := nn.RestoreState(p.net, p.st); err != nil {
			return nil, err
		}
	}
	return d, nil
}
