package heuristic

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/cascade"
	"credist/internal/celf"
	"credist/internal/graph"
)

func chainWeights(t *testing.T, n int, p float64) *cascade.Weights {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	w := cascade.NewWeights(b.Build())
	for i := 0; i < n-1; i++ {
		if err := w.Set(graph.NodeID(i), graph.NodeID(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func randomWeights(rng *rand.Rand, n int) *cascade.Weights {
	b := graph.NewBuilder(n)
	for e := 0; e < n*3; e++ {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := cascade.NewWeights(g)
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Out(u) {
			_ = w.Set(u, v, 0.05+0.4*rng.Float64())
		}
	}
	return w
}

func TestArborChainExact(t *testing.T) {
	// Chain with p=0.5: MIIA of the last node includes ancestors while the
	// path product stays >= theta.
	w := chainWeights(t, 6, 0.5)
	a := buildArbor(w, 5, 0.1) // 0.5^3=0.125 >= 0.1 > 0.5^4
	if len(a.nodes) != 4 {     // nodes 2,3,4,5
		t.Fatalf("arbor size = %d, want 4", len(a.nodes))
	}
	if a.nodes[len(a.nodes)-1] != 5 {
		t.Fatalf("root not last: %v", a.nodes)
	}
}

func TestArborRootOnly(t *testing.T) {
	w := chainWeights(t, 3, 0.0001)
	a := buildArbor(w, 2, 0.5)
	if len(a.nodes) != 1 || a.nodes[0] != 2 {
		t.Fatalf("arbor = %v, want just root", a.nodes)
	}
}

func TestArborHandlesProbabilityOne(t *testing.T) {
	// p=1 edges create zero-length Dijkstra ties; the topological order
	// must still put children before parents.
	w := chainWeights(t, 5, 1.0)
	a := buildArbor(w, 4, 0.5)
	if len(a.nodes) != 5 {
		t.Fatalf("arbor size = %d, want 5", len(a.nodes))
	}
	est := NewPMIA(w, 0.5)
	if got := est.Gain(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("deterministic chain gain = %g, want 5", got)
	}
}

func TestPMIAChainGain(t *testing.T) {
	// Chain 0->1->2 with p=0.5, theta small enough to include everything:
	// Gain(0) = 1 + 0.5 + 0.25 = 1.75 exactly (paths are unique on chains).
	w := chainWeights(t, 3, 0.5)
	est := NewPMIA(w, 0.01)
	if got := est.Gain(0); math.Abs(got-1.75) > 1e-9 {
		t.Fatalf("Gain(0) = %g, want 1.75", got)
	}
	est.Add(0)
	// With 0 seeded, 1 activates with 0.5; adding 1 raises it to 1 and 2
	// from 0.25 to 0.5: gain = 0.5 + 0.25 = 0.75.
	if got := est.Gain(1); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("Gain(1) = %g, want 0.75", got)
	}
	if got := est.Gain(0); got != 0 {
		t.Fatalf("Gain of committed seed = %g, want 0", got)
	}
}

func TestLDAGChainGain(t *testing.T) {
	// LT on a chain with w=0.5: activation probability of node k hops away
	// is 0.5^k (linear DP), same numbers as IC on a chain.
	w := chainWeights(t, 3, 0.5)
	est := NewLDAG(w, 0.01)
	if got := est.Gain(0); math.Abs(got-1.75) > 1e-9 {
		t.Fatalf("Gain(0) = %g, want 1.75", got)
	}
}

func TestEstimatorSpreadTracksAdds(t *testing.T) {
	w := chainWeights(t, 4, 0.5)
	est := NewPMIA(w, 0.01)
	if est.Spread() != 0 {
		t.Fatalf("initial spread = %g", est.Spread())
	}
	gain := est.Gain(0)
	est.Add(0)
	if math.Abs(est.Spread()-gain) > 1e-9 {
		t.Fatalf("spread %g != committed gain %g", est.Spread(), gain)
	}
	if got := est.Seeds(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Seeds = %v", got)
	}
	est.Add(0) // idempotent
	if got := est.Seeds(); len(got) != 1 {
		t.Fatalf("duplicate Add changed seeds: %v", got)
	}
}

func TestPMIAGainMatchesSpreadDelta(t *testing.T) {
	// Internal consistency: Gain(x) must equal the Spread() change
	// produced by Add(x).
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		w := randomWeights(rng, 8+rng.IntN(10))
		est := NewPMIA(w, 0.02)
		for round := 0; round < 3; round++ {
			x := graph.NodeID(rng.IntN(est.NumNodes()))
			gain := est.Gain(x)
			before := est.Spread()
			est.Add(x)
			if math.Abs(est.Spread()-before-gain) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLDAGGainMatchesSpreadDelta(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		w := randomWeights(rng, 8+rng.IntN(10))
		est := NewLDAG(w, 0.02)
		for round := 0; round < 3; round++ {
			x := graph.NodeID(rng.IntN(est.NumNodes()))
			gain := est.Gain(x)
			before := est.Spread()
			est.Add(x)
			if math.Abs(est.Spread()-before-gain) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPMIACloseToMonteCarlo(t *testing.T) {
	// On sparse random graphs with moderate probabilities the MIA estimate
	// should track MC spread within a modest relative error for singleton
	// seeds.
	rng := rand.New(rand.NewPCG(12, 12))
	w := randomWeights(rng, 40)
	est := NewPMIA(w, 0.001)
	mc := cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: 8000, Seed: 9})
	for _, u := range []graph.NodeID{0, 7, 21} {
		h := est.Gain(u)
		m := mc.Spread([]graph.NodeID{u})
		if h < 0.5*m || h > 2.0*m {
			t.Fatalf("PMIA estimate %g far from MC %g for node %d", h, m, u)
		}
	}
}

func TestCELFOverPMIASelectsChainHead(t *testing.T) {
	w := chainWeights(t, 10, 0.9)
	res := celf.Run(NewPMIA(w, 0.001), 1, celf.Options{})
	if res.Seeds[0] != 0 {
		t.Fatalf("first seed = %d, want chain head 0", res.Seeds[0])
	}
}

func TestDefaultTheta(t *testing.T) {
	w := chainWeights(t, 3, 0.5)
	est := newEstimator(w, cascade.IC, 0) // 0 -> DefaultTheta
	if est.theta != DefaultTheta {
		t.Fatalf("theta = %g, want %g", est.theta, DefaultTheta)
	}
}
