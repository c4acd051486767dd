package detect

import "fmt"

// CopyWeightsFrom overwrites g's master weights with src's — the warm-start
// path of fleet recovery, where a regime-adjacent model from another camera
// seeds training instead of random initialisation. Both detectors must have
// identical parameter shapes (same GridConfig architecture); on any
// mismatch nothing is copied and the caller falls back to scratch
// initialisation.
//
// Optimizer state (Adam moments) is NOT copied: the warm start adapts the
// borrowed weights to the new camera's frames with fresh momentum, which is
// the behaviour we want when the regimes are close but not identical.
func (g *GridDetector) CopyWeightsFrom(src *GridDetector) error {
	dst, from := g.Net.Params(), src.Net.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("detect: warm-start layer mismatch: %d params vs %d", len(dst), len(from))
	}
	for i := range dst {
		if dst[i].W.R != from[i].W.R || dst[i].W.C != from[i].W.C {
			return fmt.Errorf("detect: warm-start shape mismatch at %s: %dx%d vs %dx%d",
				dst[i].Name, dst[i].W.R, dst[i].W.C, from[i].W.R, from[i].W.C)
		}
	}
	for i := range dst {
		copy(dst[i].W.V, from[i].W.V)
	}
	return nil
}
