// Package qos is the serving-side quality-of-service layer: a fidelity
// ladder for load-adaptive degradation, bounded admission queues with
// explicit drop policies, and a hysteresis controller that walks streams
// down the ladder under measured overload and back up as load falls
// (DESIGN.md §11).
//
// The package deliberately knows nothing about the pipeline: core stamps
// fidelities onto results, dispatch carries them alongside frames, and the
// facade owns the controller. qos itself is pure bookkeeping, which keeps
// the degradation decisions replayable — the determinism contract is that
// identical admission decisions (same per-frame fidelity assignment, same
// drops) produce bit-identical results at any worker count.
package qos

import "fmt"

// Fidelity is the per-frame treatment level. The ladder is ordered from
// most to least work; Full is the zero value so callers that never
// mention fidelity are implicitly full-fidelity.
type Fidelity uint8

const (
	// Full runs the frame through the complete pipeline: projection,
	// drift bookkeeping, and every model the plan selects, with fused
	// detections materialised.
	Full Fidelity = iota
	// Lite keeps detection but degrades the plan to its single cheapest
	// model (highest simulated FPS, ties broken by selection order) —
	// ensembles collapse, specialized-over-lite preferences are ignored.
	Lite
	// Count pushes the query down to counting: the cheapest model runs
	// its count kernel and only Result.Count is materialised, never the
	// detection boxes.
	Count
	// Skip bypasses the pipeline entirely: no projection, no drift
	// bookkeeping, no detection. The frame still yields a Result (with
	// ClusterID -1 and the current model generation) so admitted frames
	// are never silently lost.
	Skip
)

// String returns the wire name of the fidelity level.
func (f Fidelity) String() string {
	switch f {
	case Full:
		return "full"
	case Lite:
		return "lite"
	case Count:
		return "count"
	case Skip:
		return "skip"
	default:
		return fmt.Sprintf("fidelity(%d)", uint8(f))
	}
}

// Degraded reports whether the level is below full fidelity.
func (f Fidelity) Degraded() bool { return f != Full }

// MaxLevel is the deepest degradation level of the ladder. Levels map to
// fidelities via ForLevel: 0 → Full, 1 → Lite, 2 → Count, 3 → Count with
// Skip subsampling.
const MaxLevel = 3

// SubsampleEvery is the level-3 sampling stride: one frame in every
// SubsampleEvery is counted, the rest are skipped.
const SubsampleEvery = 4

// ForLevel maps a degradation level to the fidelity of the frame with
// sequence number seq. Levels 0–2 are uniform; at level 3 only one frame
// in every SubsampleEvery is processed (as Count) and the rest are
// skipped, so the stream keeps a sparse signal while shedding almost all
// work.
func ForLevel(level int, seq int) Fidelity {
	switch {
	case level <= 0:
		return Full
	case level == 1:
		return Lite
	case level == 2:
		return Count
	default:
		if seq%SubsampleEvery == 0 {
			return Count
		}
		return Skip
	}
}
