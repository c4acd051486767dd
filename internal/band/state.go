package band

// TrackerState is a value snapshot of a Tracker for checkpointing. All
// fields are exported so the struct gob-encodes; the slices are deep copies.
type TrackerState struct {
	Counts []float64
	N      int
	Delta  float64
	Band   Band
}

// State snapshots the tracker.
func (t *Tracker) State() TrackerState {
	counts := make([]float64, len(t.Hist.Counts))
	copy(counts, t.Hist.Counts)
	return TrackerState{
		Counts: counts,
		N:      t.Hist.N,
		Delta:  t.Delta,
		Band:   t.band,
	}
}

// TrackerFromState rebuilds a tracker that behaves exactly like the one the
// snapshot was taken from: same histogram and band.
func TrackerFromState(st TrackerState) *Tracker {
	t := &Tracker{
		Hist:  &Histogram{Counts: make([]float64, len(st.Counts)), N: st.N},
		Delta: st.Delta,
		band:  st.Band,
	}
	copy(t.Hist.Counts, st.Counts)
	return t
}
