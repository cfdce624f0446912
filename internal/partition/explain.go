package partition

import (
	"credist/internal/core"
	"credist/internal/graph"
)

// Provenance queries, scatter-gather. Both shapes follow the additive
// structure that makes partitioned answers exact: every credit path
// (v, u, a) lives in exactly one partition — the owner of influencer v's
// row — so a seed explanation is answered wholly by one partition, and a
// reach explanation folds per-seed shares gathered from each seed's
// owner in input order, bit-identical to the single-engine answer at any
// partition count.

// ExplainSeed decomposes candidate x's marginal gain into its top credit
// paths, answered by the partition owning x's row. The explained Gain is
// bit-for-bit the coordinator's Gains value for x.
func (c *Coordinator) ExplainSeed(x graph.NodeID, top int) (core.SeedExplanation, error) {
	if err := c.checkNodes("candidate", x); err != nil {
		return core.SeedExplanation{}, err
	}
	return c.parts[ownerIndex(c.ranges, x)].ExplainSeed(x, top), nil
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// each seed's share and paths come wholly from its row's owner, shares
// fold in input order, and the gathered paths are re-sorted under the
// deterministic total order — so the merged answer is bit-identical to
// the single-engine ExplainReach.
func (c *Coordinator) ExplainReach(seeds []graph.NodeID, v graph.NodeID, top int) (core.ReachExplanation, error) {
	if err := c.checkNodes("target", v); err != nil {
		return core.ReachExplanation{}, err
	}
	if err := c.checkNodes("seed", seeds...); err != nil {
		return core.ReachExplanation{}, err
	}
	ex := core.ReachExplanation{Target: v, PerSeed: make([]core.ReachShare, 0, len(seeds))}
	var paths []core.ProvPath
	for _, s := range seeds {
		share, ps := c.parts[ownerIndex(c.ranges, s)].ReachPaths(s, v)
		ex.PerSeed = append(ex.PerSeed, core.ReachShare{Seed: s, Share: share})
		ex.Total += share
		paths = append(paths, ps...)
	}
	ex.TotalPaths = len(paths)
	ex.Paths = core.TopProvPaths(paths, top)
	return ex, nil
}
