package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating linearly
// between the closest ranks (the R-7 / NumPy default). It is NaN for an empty
// sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5 quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) gives them (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
