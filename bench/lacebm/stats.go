package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones a Python checker computes from
// the same values. One value is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	d := sorted(xs)
	if len(d) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a count-based ratio of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromSeconds converts fractional seconds to a duration.
func fromSeconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
