package main

import (
	"fmt"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 of 500 samples is the fifth-worst sample, not a tail.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minTail
// samples beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	beyond := int(float64(n)*(1-q) + 1e-9) // 100 × (1 − 0.9) is 9.999…
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need %d", q*100, n, beyond, minTail)
	}
	return sorted[n-1-beyond], nil
}

// supportedPercentile returns the highest of p99, p95, p90 and p50 that
// sorted supports, with the quantile it chose.
func supportedPercentile(sorted []float64) (v, q float64, err error) {
	for _, q = range []float64{0.99, 0.95, 0.90, 0.50} {
		if v, err = percentile(sorted, q); err == nil {
			return v, q, nil
		}
	}
	return 0, 0, err
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quietQuartile returns, of the values of a window's slices, the one a
// quarter of the way in from the better end ("lower" or "higher", as the
// contract's better): the second best of five, the third best of ten.
// Neighbours on the host and the program's own trainings only ever make a
// slice worse, and how many slices they touch differs from run to run, so
// the median slice flips between a touched and an untouched one; this one
// does not until three slices in four are touched.
func quietQuartile(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if better == "higher" {
		return s[len(s)-1-len(s)/4]
	}
	return s[len(s)/4]
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the "exclusive" method), which is what the acceptance check
// uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise the acceptance check compares against a metric's bound.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	s := (q3 - q1) / med
	if s < 0 {
		s = -s
	}
	return s
}
