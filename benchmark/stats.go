package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v need not be sorted and is not modified. An empty
// sample has no quantile: NaN, which the report refuses to print.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for a sample already in ascending order.
func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
