package cascade

import "credist/internal/graph"

// GreedyEstimator adapts Monte-Carlo spread estimation to the marginal-
// gain interface used by the greedy/CELF selectors (it satisfies
// celf.Estimator). This is the "standard approach" pipeline of the
// paper: every Gain costs a full batch of simulations, which is exactly
// the expense the CD model eliminates.
type GreedyEstimator struct {
	mc    *MCEstimator
	seeds []graph.NodeID
	base  float64
}

// NewGreedyEstimator wraps mc with an empty seed set.
func NewGreedyEstimator(mc *MCEstimator) *GreedyEstimator {
	return &GreedyEstimator{mc: mc}
}

// NumNodes implements the estimator interface.
func (e *GreedyEstimator) NumNodes() int { return e.mc.weights.Graph().NumNodes() }

// Gain estimates sigma(S+x) - sigma(S) with a fresh simulation batch.
func (e *GreedyEstimator) Gain(x graph.NodeID) float64 {
	withX := append(append([]graph.NodeID(nil), e.seeds...), x)
	return e.mc.Spread(withX) - e.base
}

// Add commits x and re-estimates the base spread.
func (e *GreedyEstimator) Add(x graph.NodeID) {
	e.seeds = append(e.seeds, x)
	e.base = e.mc.Spread(e.seeds)
}

// Seeds returns the committed seeds.
func (e *GreedyEstimator) Seeds() []graph.NodeID {
	out := make([]graph.NodeID, len(e.seeds))
	copy(out, e.seeds)
	return out
}
