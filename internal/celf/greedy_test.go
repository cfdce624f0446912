package celf_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/celf"
	"credist/internal/graph"
)

// unitCover wraps covers in the unweighted coverage estimator (every
// element worth 1): the canonical monotone submodular family, on which
// Greedy and Run must agree exactly.
func unitCover(covers [][]int) *coverEstimator {
	universe := 0
	for _, c := range covers {
		for _, e := range c {
			universe = max(universe, e+1)
		}
	}
	vals := make([]float64, universe)
	for i := range vals {
		vals[i] = 1
	}
	return newCoverEstimator(covers, vals)
}

func randomCovers(rng *rand.Rand, n, universe int) [][]int {
	covers := make([][]int, n)
	for i := range covers {
		m := 1 + rng.IntN(universe/2)
		seen := map[int]bool{}
		for len(seen) < m {
			seen[rng.IntN(universe)] = true
		}
		for e := range seen {
			covers[i] = append(covers[i], e)
		}
	}
	return covers
}

func TestGreedySolvesSmallCover(t *testing.T) {
	covers := [][]int{
		{1, 2, 3},
		{3, 4},
		{5},
		{1, 2, 3, 4}, // dominates 0 and 1
	}
	res := celf.Greedy(unitCover(covers), 2)
	if len(res.Seeds) != 2 || res.Seeds[0] != 3 || res.Seeds[1] != 2 {
		t.Fatalf("Seeds = %v, want [3 2]", res.Seeds)
	}
	if res.Spread() != 5 {
		t.Fatalf("Spread = %g, want 5", res.Spread())
	}
}

func TestCELFEqualsGreedy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		covers := randomCovers(rng, 10+rng.IntN(20), 30)
		k := 1 + rng.IntN(6)
		g := celf.Greedy(unitCover(covers), k)
		c := celf.Run(unitCover(covers), k, celf.Options{})
		if len(g.Seeds) != len(c.Seeds) {
			return false
		}
		for i := range g.Seeds {
			// Identical tie-breaking: both prefer the smaller node id.
			if g.Seeds[i] != c.Seeds[i] || g.Gains[i] != c.Gains[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCELFDoesFewerLookups(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	covers := randomCovers(rng, 200, 100)
	k := 10
	g := celf.Greedy(unitCover(covers), k)
	c := celf.Run(unitCover(covers), k, celf.Options{})
	if c.Lookups >= g.Lookups {
		t.Fatalf("CELF lookups %d not below greedy %d", c.Lookups, g.Lookups)
	}
}

func TestGreedyStopsWhenCandidatesExhausted(t *testing.T) {
	covers := [][]int{{1}, {2}}
	res := celf.Greedy(unitCover(covers), 10)
	if len(res.Seeds) != 2 {
		t.Fatalf("Seeds = %v, want both candidates", res.Seeds)
	}
}

func TestGreedyCandidatesRestricted(t *testing.T) {
	covers := [][]int{{1, 2, 3}, {4}, {5}}
	res := celf.GreedyCandidates(unitCover(covers), 2, []graph.NodeID{1, 2})
	for _, s := range res.Seeds {
		if s == 0 {
			t.Fatal("selected a node outside the candidate pool")
		}
	}
}

func TestElapsedMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	covers := randomCovers(rng, 50, 40)
	res := celf.Run(unitCover(covers), 5, celf.Options{})
	if len(res.Elapsed) != len(res.Seeds) {
		t.Fatalf("Elapsed len %d != Seeds len %d", len(res.Elapsed), len(res.Seeds))
	}
	for i := 1; i < len(res.Elapsed); i++ {
		if res.Elapsed[i] < res.Elapsed[i-1] {
			t.Fatal("Elapsed not monotone")
		}
	}
}

func TestGainsNonIncreasing(t *testing.T) {
	// Submodularity makes greedy marginal gains non-increasing.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		covers := randomCovers(rng, 15, 25)
		res := celf.Run(unitCover(covers), 8, celf.Options{})
		for i := 1; i < len(res.Gains); i++ {
			if res.Gains[i] > res.Gains[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
