package core

import (
	"fmt"
	"math"
	"sort"

	"bufqos/internal/packet"
)

// groupingCost returns S = Σ√(σ̂ᵢρ̂ᵢ) for a queue assignment; since
// B_hybrid = σ + S²/(R−ρ) (equation 19), minimizing S minimizes the
// hybrid buffer requirement for any fixed link and flow set.
func groupingCost(specs []packet.FlowSpec, queueOf []int, k int) float64 {
	groups, err := GroupFlows(specs, queueOf, k)
	if err != nil {
		return math.Inf(1)
	}
	s := 0.0
	for _, g := range groups {
		s += math.Sqrt(g.Sigma.Bits() * g.Rho.BitsPerSecond())
	}
	return s
}

// OptimizeGroupingExhaustive searches all assignments of n flows to at
// most k queues for the one minimizing the hybrid buffer requirement.
// It is exponential (k^n with symmetry pruning) and intended for small
// n (≲ 12); larger inputs should use OptimizeGroupingDP.
func OptimizeGroupingExhaustive(specs []packet.FlowSpec, k int) ([]int, error) {
	n := len(specs)
	if n == 0 || k <= 0 {
		return nil, fmt.Errorf("core: need flows and queues (n=%d, k=%d)", n, k)
	}
	if k > n {
		k = n
	}
	if n > 14 {
		return nil, fmt.Errorf("core: exhaustive grouping infeasible for %d flows; use OptimizeGroupingDP", n)
	}
	best := make([]int, n)
	cur := make([]int, n)
	bestCost := math.Inf(1)
	// Restricted-growth enumeration: flow i may start a new group only
	// if all groups below it are in use, eliminating label symmetry.
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			if c := groupingCost(specs, cur, k); c < bestCost {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		limit := used
		if limit >= k {
			limit = k - 1
		}
		for q := 0; q <= limit; q++ {
			cur[i] = q
			next := used
			if q == used {
				next++
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
	return best, nil
}

// OptimizeGroupingDP is the scalable grouping heuristic: flows are
// sorted by their burst-to-rate ratio σ/ρ and partitioned into at most
// k contiguous segments by dynamic programming, minimizing S. The
// intuition matches the paper's guidance that queues should separate
// low-burstiness flows (e.g. IP telephony) from high-burstiness ones
// (e.g. video on demand): flows with similar σ/ρ share a queue.
func OptimizeGroupingDP(specs []packet.FlowSpec, k int) ([]int, error) {
	n := len(specs)
	if n == 0 || k <= 0 {
		return nil, fmt.Errorf("core: need flows and queues (n=%d, k=%d)", n, k)
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ratio := func(i int) float64 {
		return specs[i].BucketSize.Bits() / specs[i].TokenRate.BitsPerSecond()
	}
	sort.Slice(order, func(a, b int) bool { return ratio(order[a]) < ratio(order[b]) })

	// Prefix sums over the sorted order.
	prefSigma := make([]float64, n+1)
	prefRho := make([]float64, n+1)
	for i, idx := range order {
		prefSigma[i+1] = prefSigma[i] + specs[idx].BucketSize.Bits()
		prefRho[i+1] = prefRho[i] + specs[idx].TokenRate.BitsPerSecond()
	}
	segCost := func(a, b int) float64 { // flows [a, b) of the sorted order
		return math.Sqrt((prefSigma[b] - prefSigma[a]) * (prefRho[b] - prefRho[a]))
	}

	const inf = math.MaxFloat64
	// dp[j][i]: min cost of splitting the first i flows into j segments.
	dp := make([][]float64, k+1)
	cut := make([][]int, k+1)
	for j := range dp {
		dp[j] = make([]float64, n+1)
		cut[j] = make([]int, n+1)
		for i := range dp[j] {
			dp[j][i] = inf
		}
	}
	dp[0][0] = 0
	for j := 1; j <= k; j++ {
		for i := 1; i <= n; i++ {
			for a := j - 1; a < i; a++ {
				if dp[j-1][a] == inf {
					continue
				}
				if c := dp[j-1][a] + segCost(a, i); c < dp[j][i] {
					dp[j][i] = c
					cut[j][i] = a
				}
			}
		}
	}
	bestJ, bestCost := 1, dp[1][n]
	for j := 2; j <= k; j++ {
		if dp[j][n] < bestCost {
			bestJ, bestCost = j, dp[j][n]
		}
	}
	_ = bestCost
	queueOf := make([]int, n)
	i := n
	for j := bestJ; j >= 1; j-- {
		a := cut[j][i]
		for p := a; p < i; p++ {
			queueOf[order[p]] = j - 1
		}
		i = a
	}
	return queueOf, nil
}
