// Package outlier implements the drift/outlier-detection baselines the
// paper compares DA-GAN against in Table 1 — LOF (Breunig et al.), DRAE
// (Xia et al.), PCA reconstruction error — plus latent-space k-NN detectors
// over any gan.Projector (AE, AAE, DA-GAN), quantile thresholds and F1
// evaluation.
package outlier

import "sort"

// Detector is an unsupervised outlier scorer: Fit consumes in-distribution
// (or contaminated) training data; Score returns a value that is higher for
// points less likely to come from the training distribution.
type Detector interface {
	Fit(train [][]float64)
	Score(x []float64) float64
}

// Confusion counts binary classification outcomes for the outlier class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision of the outlier class (1 when no positives were predicted).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall of the outlier class (1 when there were no outliers).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate thresholds scores and compares against ground truth (true =
// outlier).
func Evaluate(scores []float64, isOutlier []bool, thr float64) Confusion {
	var c Confusion
	for i, s := range scores {
		pred := s > thr
		switch {
		case pred && isOutlier[i]:
			c.TP++
		case pred && !isOutlier[i]:
			c.FP++
		case !pred && isOutlier[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Quantile returns the q-quantile (0..1) of values.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
