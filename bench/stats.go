package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values: the smallest value with at least p% of the samples at or
// below it.  It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// minBeyond is the choosing-metrics rule: a percentile is reportable only
// with at least this many samples beyond it.
const minBeyond = 10

// supportsPercentile reports whether n samples carry the p-th percentile.
func supportsPercentile(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value, averaging the two middle values of an
// even-sized sample.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the acceptance check of BENCHMARK.json uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is the interquartile distance as a share of the median.
func iqrShare(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// typicalLatency is the median over request types of each type's median
// latency.  Every mix holds its types equally often, so this is the
// mixture's median made stable: with an even number of types the mixture's
// own median sits on the boundary between two types' latencies and jumps from
// one to the other between runs.
func typicalLatency(byType [][]float64) float64 {
	var meds []float64
	for _, lat := range byType {
		if len(lat) > 0 {
			meds = append(meds, median(lat))
		}
	}
	return median(meds)
}
