// Package stats provides the small statistical toolkit used by the
// experiment harnesses: summary statistics (mean/stddev/median),
// percentiles, success-rate counters and
// Wilson score intervals (the 95% bounds the scenario reports put on
// every success rate). Everything is deterministic and allocation-
// conscious, so aggregation never perturbs a report's byte identity.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two samples are present.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It copies xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the four statistics the paper reports for timings.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		Median: Median(xs),
	}
}

// String formats the summary as "mean ± stddev (median m, n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3g ± %.3g (median %.3g, n=%d)", s.Mean, s.Stddev, s.Median, s.N)
}

// Wilson returns the Wilson score confidence interval for a binomial
// proportion: k successes out of n trials at normal quantile z (1.96 for
// 95%). Unlike the normal approximation it stays inside [0, 1] and
// behaves sensibly at k = 0 and k = n, which is what the scenario
// harness needs for success rates estimated from a handful of whole-
// pipeline trials. n = 0 returns the vacuous interval [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / denom
	hi = (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Counter tracks success/failure outcomes.
type Counter struct {
	Success int
	Failure int
}

// Record adds one outcome.
func (c *Counter) Record(ok bool) {
	if ok {
		c.Success++
	} else {
		c.Failure++
	}
}

// Rate returns the success rate, or 0 when empty.
func (c *Counter) Rate() float64 {
	n := c.Success + c.Failure
	if n == 0 {
		return 0
	}
	return float64(c.Success) / float64(n)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
