package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/graph"
)

// checkedEstimator wraps an estimator so that every gain CELF evaluates
// is checked against the bound the selection was seeded with.
type checkedEstimator struct {
	celf.ConcurrentEstimator
	bounds []float64
	t      *testing.T
}

func (c checkedEstimator) Gain(x graph.NodeID) float64 {
	g := c.ConcurrentEstimator.Gain(x)
	if g > c.bounds[x] {
		c.t.Errorf("Gain(%d) = %v (%b) above its bound %v (%b)", x, g, g, c.bounds[x], c.bounds[x])
	}
	return g
}

// boundBlockedSets returns the rival sets the bound test selects
// against: none, the one to three top singleton-gain nodes (whose
// commits lower their neighbours' gains the most), and mixes with
// random nodes.
func boundBlockedSets(rng *rand.Rand, bounds []float64) [][]graph.NodeID {
	n := len(bounds)
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		switch {
		case bounds[a] > bounds[b]:
			return -1
		case bounds[a] < bounds[b]:
			return 1
		}
		return int(a - b)
	})
	perm := rng.Perm(n)
	random := func(i int) graph.NodeID { return graph.NodeID(perm[i]) }
	sets := [][]graph.NodeID{
		nil,
		{order[0]},
		{order[0], order[1]},
		{order[0], order[1], order[2]},
		{random(0), order[1]},
	}
	if n >= 3 {
		sets = append(sets, []graph.NodeID{random(0), random(1), random(2)})
	}
	return sets
}

// sameSelection fails unless a and b hold the same seeds and bit-equal
// gains.
func sameSelection(t *testing.T, label string, got, want celf.Result) {
	t.Helper()
	if !slices.Equal(got.Seeds, want.Seeds) {
		t.Fatalf("%s: seeds %v, want %v", label, got.Seeds, want.Seeds)
	}
	for i := range want.Gains {
		if math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
			t.Fatalf("%s: gain %d is %b, want %b", label, i, got.Gains[i], want.Gains[i])
		}
	}
}

// TestSingletonBoundsMatchFullPass is the differential test behind
// celf.Options.Bounds: a rival-only selection seeded with every node's
// singleton gain on the seed-free base returns the seeds and bit-equal
// gains of the selection that prices every candidate first, with no more
// lookups, and no refreshed gain ever exceeds its bound. It covers Figure
// 1 and random tiny instances, 0-3 rivals (the top singleton-gain nodes
// among them), unit and per-node costs, 1 and 4 workers, Grow in steps,
// and the row-range partitioned estimator at 1-4 partitions.
func TestSingletonBoundsMatchFullPass(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		log  *actionlog.Log
		opts Options
	}
	g, log := figure1(t)
	instances := []instance{{name: "figure1", g: g, log: log}}
	rng := rand.New(rand.NewPCG(83, 5))
	for trial := 0; trial < 10; trial++ {
		g, log := randomInstance(rng, 12+rng.IntN(20), 4+rng.IntN(10))
		opts := Options{Credit: LearnTimeAware(g, log)}
		if trial%2 == 1 {
			opts.Lambda = 0.05
		}
		instances = append(instances, instance{name: fmt.Sprintf("random-%d", trial), g: g, log: log, opts: opts})
	}
	const k = 6
	var withBounds, without int
	for _, in := range instances {
		t.Run(in.name, func(t *testing.T) {
			base := NewEngine(in.g, in.log, in.opts)
			base.Freeze()
			n := base.NumNodes()
			bounds := make([]float64, n)
			for x := range bounds {
				bounds[x] = base.Gain(graph.NodeID(x))
			}
			costs := make([]float64, n)
			for x := range costs {
				costs[x] = 0.5 + 2.5*rng.Float64()
			}
			// committed returns a clone of the base holding the rivals.
			committed := func(blocked []graph.NodeID) *Engine {
				e := base.Clone()
				for _, r := range blocked {
					e.Add(r)
				}
				return e
			}
			for bi, blocked := range boundBlockedSets(rng, bounds) {
				for _, cs := range [][]float64{nil, costs} {
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("blocked %v costs %t workers %d", blocked, cs != nil, workers)
						opts := celf.Options{Workers: workers, Costs: cs, Blocked: blocked}
						bopts := opts
						bopts.Bounds = bounds
						want := celf.Run(committed(blocked), k, opts)
						got := celf.Run(checkedEstimator{committed(blocked), bounds, t}, k, bopts)
						sameSelection(t, label, got, want)
						if got.Lookups > want.Lookups {
							t.Errorf("%s: %d lookups with bounds, %d without", label, got.Lookups, want.Lookups)
						}
						withBounds += got.Lookups
						without += want.Lookups

						// Grow in steps: every prefix agrees.
						full := celf.NewSelection(committed(blocked), opts)
						bounded := celf.NewSelection(checkedEstimator{committed(blocked), bounds, t}, bopts)
						for _, step := range []int{1, 3, k} {
							sameSelection(t, fmt.Sprintf("%s grow %d", label, step), bounded.Grow(step), full.Grow(step))
						}

						// The partitioned estimator over 1-4 row ranges.
						for parts := 1; parts <= 4; parts++ {
							engines := make([]celf.Partition, parts)
							for i := range engines {
								p, err := base.Slice(i*n/parts, (i+1)*n/parts)
								if err != nil {
									t.Fatal(err)
								}
								engines[i] = p
							}
							pe, err := celf.NewPartitionedEstimator(engines, workers)
							if err != nil {
								t.Fatal(err)
							}
							for _, r := range blocked {
								pe.Add(r)
							}
							got := celf.Run(checkedEstimator{pe, bounds, t}, k, bopts)
							sameSelection(t, fmt.Sprintf("%s partitions %d", label, parts), got, want)
						}
					}
				}
				if bi == 0 {
					// A budget ignores the bounds: its best-of rule needs
					// every affordable singleton's exact gain.
					opts := celf.Options{Workers: 1, Costs: costs, Budget: 2}
					bopts := opts
					bopts.Bounds = bounds
					want := celf.Run(committed(nil), k, opts)
					got := celf.Run(committed(nil), k, bopts)
					sameSelection(t, "budget", got, want)
					if got.Lookups != want.Lookups {
						t.Errorf("budget: %d lookups with bounds, %d without", got.Lookups, want.Lookups)
					}
				}
			}
		})
	}
	if withBounds >= without {
		t.Errorf("bounds saved nothing: %d lookups with them, %d without", withBounds, without)
	}
	t.Logf("lookups over all selections: %d with bounds, %d without", withBounds, without)
}
