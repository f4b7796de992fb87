package main

import (
	"math"
	"sort"
)

// summary is what the benchmark reports for a sample of timings or rates:
// the median, the quartiles around it and the sample count.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// summarize sorts a copy of vs and reads the quartiles off it. An empty
// sample summarizes to zeros (a scaled-down test run can finish a build
// before the load generator's first operation is due).
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return summary{N: len(s), Q1: quantileSorted(s, 0.25), Med: quantileSorted(s, 0.5), Q3: quantileSorted(s, 0.75)}
}

func median(vs []float64) float64 { return summarize(vs).Med }

// quantileSorted interpolates linearly between the two nearest ranks of a
// non-empty sorted sample.
func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile is the nearest-rank percentile of an unsorted sample, together
// with the number of samples that lie beyond it (the guide asks for at least
// ten before a tail percentile is trusted).
func percentile(vs []float64, p float64) (value float64, beyond int) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// ratio is a/b with 0 for an empty denominator, so an idle layer reports 0
// rather than NaN (NaN is not valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
