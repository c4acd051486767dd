package core

import (
	"fmt"
	"math"

	"odin/internal/cluster"
	"odin/internal/detect"
	"odin/internal/synth"
)

// Policy identifies a SELECTOR model-selection policy (§5.3).
type Policy int

// Selection policies.
const (
	// PolicyDeltaBM picks the models of every cluster whose ∆-band
	// contains the point, falling back to KNN-W outside all bands (the
	// default).
	PolicyDeltaBM Policy = iota
	// PolicyKNNU picks the k nearest models, unweighted.
	PolicyKNNU
	// PolicyKNNW picks the k nearest models, weighted inversely to
	// distance (Equation 8).
	PolicyKNNW
	// PolicyMostRecent always uses the most recently created model — the
	// naive policy of the §6.7 ablation ("-SELECTOR").
	PolicyMostRecent
)

// String returns the policy's CLI name (the form ParsePolicy accepts).
func (p Policy) String() string {
	switch p {
	case PolicyDeltaBM:
		return "delta-bm"
	case PolicyKNNU:
		return "knn-u"
	case PolicyKNNW:
		return "knn-w"
	case PolicyMostRecent:
		return "most-recent"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI name ("delta-bm", "knn-u", "knn-w",
// "most-recent"; empty means the default) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p := PolicyDeltaBM; p <= PolicyMostRecent; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	if s == "" {
		return PolicyDeltaBM, nil
	}
	return PolicyDeltaBM, fmt.Errorf("odin: unknown policy %q", s)
}

// WeightedModel is one model chosen by the selector with its ensemble
// weight.
type WeightedModel struct {
	Model  *Model
	Weight float64
}

// Selector implements the model-ensemble selection policies over the
// model manager's per-cluster models.
type Selector struct {
	Policy Policy
	K      int // ensemble size for the KNN policies
}

// Select returns the weighted models to run on a point with latent z.
// clusters is the live cluster set; byCluster maps cluster id → model.
func (s *Selector) Select(z []float64, clusters *cluster.Set, byCluster map[int]*Model, mostRecent *Model) []WeightedModel {
	switch s.Policy {
	case PolicyMostRecent:
		if mostRecent == nil {
			return nil
		}
		return []WeightedModel{{Model: mostRecent, Weight: 1}}
	case PolicyDeltaBM:
		var in []WeightedModel
		for _, c := range clusters.Permanent {
			if m := byCluster[c.ID]; m != nil && c.Contains(z) {
				in = append(in, WeightedModel{Model: m})
			}
		}
		if len(in) > 0 {
			// Overlapping bands share equal weights (§6.4).
			w := 1 / float64(len(in))
			for i := range in {
				in[i].Weight = w
			}
			return in
		}
		return s.knn(z, clusters, byCluster, true)
	case PolicyKNNW:
		return s.knn(z, clusters, byCluster, true)
	default:
		return s.knn(z, clusters, byCluster, false)
	}
}

// knn implements the KNN-U / KNN-W policies over raw latent distances.
func (s *Selector) knn(z []float64, clusters *cluster.Set, byCluster map[int]*Model, weighted bool) []WeightedModel {
	k := s.K
	if k <= 0 {
		k = 4
	}
	cs, ds := clusters.NearestRaw(z, k)
	var out []WeightedModel
	var dist []float64
	for i, c := range cs {
		if m := byCluster[c.ID]; m != nil {
			out = append(out, WeightedModel{Model: m})
			dist = append(dist, ds[i])
		}
	}
	if len(out) == 0 {
		return nil
	}
	if !weighted {
		w := 1 / float64(len(out))
		for i := range out {
			out[i].Weight = w
		}
		return out
	}
	// Equation 8: inverted distances normalised to weights.
	maxD := 0.0
	for _, d := range dist {
		maxD = math.Max(maxD, d)
	}
	if maxD == 0 {
		maxD = 1
	}
	var sum float64
	inv := make([]float64, len(dist))
	for i, d := range dist {
		if d <= 1e-12 {
			d = 1e-12
		}
		inv[i] = maxD / d
		sum += inv[i]
	}
	for i := range out {
		out[i].Weight = inv[i] / sum
	}
	return out
}

// FuseDetections combines per-model detections into one set using weighted
// box fusion: same-class boxes overlapping at IoU ≥ 0.5 are merged, their
// coordinates averaged by weight·score and their fused score accumulated
// as Σ wᵢ·scoreᵢ (clamped to 1).
func FuseDetections(sets [][]detect.Detection, weights []float64) []detect.Detection {
	type group struct {
		rep   synth.Box
		score float64
		sumW  float64
		x, y  float64
		w, h  float64
	}
	var groups []*group
	for si, dets := range sets {
		wgt := weights[si]
		for _, d := range dets {
			var best *group
			bestIoU := 0.0
			for _, g := range groups {
				if g.rep.Class != d.Box.Class {
					continue
				}
				if iou := g.rep.IoU(d.Box); iou >= 0.5 && iou > bestIoU {
					best = g
					bestIoU = iou
				}
			}
			contrib := wgt * d.Score
			if best == nil {
				groups = append(groups, &group{
					rep:   d.Box,
					score: contrib,
					sumW:  contrib,
					x:     d.Box.X * contrib,
					y:     d.Box.Y * contrib,
					w:     d.Box.W * contrib,
					h:     d.Box.H * contrib,
				})
				continue
			}
			best.score += contrib
			best.sumW += contrib
			best.x += d.Box.X * contrib
			best.y += d.Box.Y * contrib
			best.w += d.Box.W * contrib
			best.h += d.Box.H * contrib
		}
	}
	// Fused detections below this score are ensemble noise: contributions
	// from far-away models that Equation 8 already down-weighted.
	const minFusedScore = 0.12
	out := make([]detect.Detection, 0, len(groups))
	for _, g := range groups {
		if g.sumW <= 0 || g.score < minFusedScore {
			continue
		}
		box := synth.Box{
			Class: g.rep.Class,
			X:     g.x / g.sumW,
			Y:     g.y / g.sumW,
			W:     g.w / g.sumW,
			H:     g.h / g.sumW,
		}
		out = append(out, detect.Detection{Box: box, Score: math.Min(g.score, 1)})
	}
	return detect.NMS(out, 0.5)
}
