package stats

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Summary holds descriptive statistics of a sample, used by the experiment
// harness when reporting measured series.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics; the zero Summary is returned
// for an empty sample. Stddev is the sample standard deviation (n−1).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Percentile returns the q-th percentile (q in [0,1]) of xs using
// nearest-rank on a sorted copy. It returns 0 for an empty sample; a NaN q
// is treated as 0.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return nearestRank(sorted, q)
}

// Percentiles returns the qs-th percentiles of xs, sorting the sample once
// — the loop-free replacement for repeated Percentile calls when a report
// wants p50/p95/p99 of the same series. The result is parallel to qs; an
// empty sample yields all zeros.
func Percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 || len(qs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = nearestRank(sorted, q)
	}
	return out
}

// nearestRank picks the q-th percentile from an already-sorted non-empty
// sample. NaN and out-of-range q clamp to the sample's extremes — a single-
// sample series returns that sample for every q.
func nearestRank(sorted []float64, q float64) float64 {
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TruncNormalDuration draws from a normal distribution with the given mean
// and standard deviation, truncated below at floor. The paper simulates
// background server load exactly this way ("a delay that was normally
// distributed with a mean of 100 milliseconds"); truncation keeps simulated
// service times physical.
func TruncNormalDuration(r *rand.Rand, mean, stddev, floor time.Duration) time.Duration {
	d := time.Duration(r.NormFloat64()*float64(stddev)) + mean
	if d < floor {
		d = floor
	}
	return d
}
