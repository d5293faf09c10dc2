// Package stats provides the small statistics substrate used by the
// experiment harness: the mean, Pearson correlation (the metric behind
// the paper's Fig. 6 r-values), and deterministic random streams.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a statistic needs more samples than
// were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. It returns ErrInsufficientData when fewer than two
// samples are provided or the slices differ in length, and r = 0 when
// either series is constant.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
