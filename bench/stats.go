package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest value of v. The timed calls are
// deterministic and whatever else runs on the host can only slow them,
// so the fastest repeat is the call's cost and the rest is the host; on
// the shared reference VM the minimum of a run's calls is two to three
// times steadier from run to run than their median.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[0]
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// the acceptance driver computes run-to-run spread with that function
// and -selfcheck must see the same number. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of v as a share of its median:
// the run-to-run noise figure every bound is calibrated against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// quantileLadder lists the quantiles a latency report may name.
var quantileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tailBeyond is how many samples must lie beyond a reported quantile
// for it to be more than an anecdote.
const tailBeyond = 10

// quantileAtMost returns the highest ladder quantile q ≤ want that has
// at least tailBeyond samples beyond it in the ascending slice s, and
// its nearest-rank value. With too few samples for any ladder entry it
// returns the median: a handful of samples has no tail to report, and
// their maximum would be one disturbed run.
func quantileAtMost(s []float64, want float64) (q, v float64) {
	if len(s) == 0 {
		return 0.5, 0
	}
	n := len(s)
	q, v = 0.5, median(s)
	for _, c := range quantileLadder {
		if c > want {
			break
		}
		idx := max(int(math.Ceil(c*float64(n)))-1, 0)
		if n-1-idx >= tailBeyond {
			q, v = c, s[idx]
		}
	}
	return q, v
}

// worseBy reports by what share of base the value cur is worse, given
// the metric's direction ("lower" or "higher" is better). Negative
// means cur is better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}
