package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: fewer would make the "tail" one or two unlucky requests.
const tailBeyond = 10

// tail is the highest-percentile latency that still has tailBeyond
// samples above it, with the percentile it sits at and the sample count.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tailOf picks the tail from unsorted samples. With sorted samples
// s[0..n-1], s[n-1-tailBeyond] has exactly tailBeyond samples after it,
// so its percentile rank is (n-tailBeyond)/n. With too few samples there
// is no such percentile; ok is false and the maximum is returned.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	t.Samples = n
	if n == 0 {
		return t, false
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		t.Value, t.Percentile = s[n-1], 100
		return t, false
	}
	// Samples tied with the chosen one are not beyond it: step down past
	// ties so that at least tailBeyond samples are strictly larger.
	k := n - 1 - tailBeyond
	for k > 0 && s[k] == s[k+1] {
		k--
	}
	if s[k] == s[k+1] {
		t.Value, t.Percentile = s[n-1], 100
		return t, false
	}
	t.Value = s[k]
	t.Beyond = n - 1 - k
	t.Percentile = 100 * float64(k+1) / float64(n)
	return t, true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of unsorted samples (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 by the same "exclusive" method as
// Python's statistics.quantiles(values, n=4), so the spreads the
// self-check prints are the ones an outside acceptance check computes.
// It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return q, false
	}
	s := sortedCopy(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Python clamps j to 1..n-1 before taking delta, so the outer
		// quartiles of very small samples extrapolate.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok || q[1] == 0 {
		return math.NaN()
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
