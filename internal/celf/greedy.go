package celf

import (
	"time"

	"credist/internal/graph"
)

// Greedy runs the plain greedy algorithm (Algorithm 1 of the paper, after
// Kempe et al.): every round it re-evaluates the marginal gain of every
// candidate. It does O(nk) Gain calls where CELF does a handful per seed,
// and stays as the reference the tests and ablation benchmarks compare
// Run against: on a submodular estimator both pick the same seeds (up to
// floating-point ties).
func Greedy(est Estimator, k int) Result {
	n := est.NumNodes()
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	return GreedyCandidates(est, k, candidates)
}

// GreedyCandidates is Greedy restricted to a candidate pool.
func GreedyCandidates(est Estimator, k int, candidates []graph.NodeID) Result {
	var res Result
	start := time.Now()
	chosen := make(map[graph.NodeID]bool, k)
	for len(res.Seeds) < k && len(res.Seeds) < len(candidates) {
		best := graph.NodeID(-1)
		bestGain := -1.0
		for _, x := range candidates {
			if chosen[x] {
				continue
			}
			g := est.Gain(x)
			res.Lookups++
			if g > bestGain || (g == bestGain && (best == -1 || x < best)) {
				best, bestGain = x, g
			}
		}
		if best == -1 {
			break
		}
		est.Add(best)
		chosen[best] = true
		res.Seeds = append(res.Seeds, best)
		res.Gains = append(res.Gains, bestGain)
		res.LookupsAt = append(res.LookupsAt, int64(res.Lookups))
		res.Elapsed = append(res.Elapsed, time.Since(start))
	}
	return res
}
