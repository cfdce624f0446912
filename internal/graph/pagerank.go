package graph

import "sort"

// PageRankOptions configures the PageRank computation.
type PageRankOptions struct {
	// Damping is the probability of following an out-link (default 0.85).
	Damping float64
	// MaxIter bounds the number of power iterations (default 100).
	MaxIter int
	// Tol is the L1 convergence tolerance (default 1e-9).
	Tol float64
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	return o
}

// PageRank computes PageRank scores by power iteration. Scores sum to 1.
// Dangling nodes (no out-edges) distribute their mass uniformly, the
// standard correction.
//
// The paper uses PageRank as one of the heuristic seed-selection baselines
// in the "Spread Achieved" experiment (Figure 6). Note that for influence,
// rank should accumulate along *reversed* edges (a node is influential if
// influenced nodes point at it); callers who want the influence-oriented
// variant should run PageRank on g.Transpose(), as cmd/experiments does.
func PageRank(g *Graph, opts PageRankOptions) []float64 {
	opts = opts.withDefaults()
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := int32(0); u < int32(n); u++ {
			out := g.Out(u)
			if len(out) == 0 {
				dangling += rank[u]
				continue
			}
			share := rank[u] / float64(len(out))
			for _, v := range out {
				next[v] += share
			}
		}
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv
		delta := 0.0
		for i := range next {
			v := base + opts.Damping*next[i]
			d := v - rank[i]
			if d < 0 {
				d = -d
			}
			delta += d
			rank[i] = v
		}
		if delta < opts.Tol {
			break
		}
	}
	return rank
}

// TopKByScore returns the ids of the k highest-scoring nodes, ties broken
// by lower id. If k exceeds the node count every node is returned.
func TopKByScore(scores []float64, k int) []NodeID {
	ids := make([]NodeID, len(scores))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	if k > len(ids) {
		k = len(ids)
	}
	// Full sort keeps the tie-break deterministic; n is small enough in all
	// callers (seed selection with k<=50 over <=10^6 nodes) that partial
	// selection would be a premature optimization.
	sort.Slice(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids[:k]
}

// HighDegree returns the k nodes of largest out-degree (ties by id), the
// paper's "High Degree" seed-selection baseline.
func HighDegree(g *Graph, k int) []NodeID {
	scores := make([]float64, g.NumNodes())
	for u := range scores {
		scores[u] = float64(g.OutDegree(NodeID(u)))
	}
	return TopKByScore(scores, k)
}

// PageRankSeeds returns the k top nodes by PageRank over the reversed
// graph, so that rank flows from the influenced toward influencers — the
// paper's PageRank seed-selection baseline.
func PageRankSeeds(g *Graph, k int, opts PageRankOptions) []NodeID {
	return TopKByScore(PageRank(g.Transpose(), opts), k)
}
