package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// using the "exclusive" method of Python's statistics.quantiles(n=4), so a
// spread computed here matches one computed from the printed values. A
// single value is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// nearestRank returns the nearest-rank q-quantile of xs, the definition the
// serve harness reports its percentiles with; 0 for an empty slice.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[min(int(q*float64(len(d))), len(d)-1)]
}

// iqr returns the distance between the third and first quartile.
func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}

// geomean returns the geometric mean of positive values (0 when xs is empty
// or holds a value that is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
