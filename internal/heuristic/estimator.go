package heuristic

import (
	"credist/internal/cascade"
	"credist/internal/graph"
)

// Estimator approximates expected spread through per-node local
// arborescences, providing the marginal-gain interface the greedy/CELF
// selectors consume (it satisfies celf.Estimator). With mode IC it is
// the (P)MIA heuristic; with mode LT it is the arborescence-shaped LDAG
// heuristic.
type Estimator struct {
	w     *cascade.Weights
	mode  cascade.Model
	theta float64

	arbs  []*arbor  // per root node
	roots [][]int32 // roots[v]: list of root ids whose arborescence contains v
	ap    []float64 // current activation probability of each root given S
	inS   []bool
	// scratch buffer for DP values, sized to the largest arborescence
	val []float64
}

// DefaultTheta is the influence threshold used when none is given; 1/320
// is the setting Chen et al. recommend.
const DefaultTheta = 1.0 / 320

// NewPMIA builds the IC-model heuristic estimator over weighted graph w.
func NewPMIA(w *cascade.Weights, theta float64) *Estimator {
	return newEstimator(w, cascade.IC, theta)
}

// NewLDAG builds the LT-model heuristic estimator over weighted graph w,
// constructing a genuine local DAG per node via the additive-influence
// procedure of Chen et al. (see buildLDAG).
func NewLDAG(w *cascade.Weights, theta float64) *Estimator {
	return newEstimator(w, cascade.LT, theta)
}

func newEstimator(w *cascade.Weights, mode cascade.Model, theta float64) *Estimator {
	if theta <= 0 {
		theta = DefaultTheta
	}
	g := w.Graph()
	n := g.NumNodes()
	e := &Estimator{
		w:     w,
		mode:  mode,
		theta: theta,
		arbs:  make([]*arbor, n),
		roots: make([][]int32, n),
		ap:    make([]float64, n),
		inS:   make([]bool, n),
	}
	maxArb := 0
	for u := 0; u < n; u++ {
		var a *arbor
		if mode == cascade.LT {
			a = buildLDAG(w, graph.NodeID(u), theta)
		} else {
			a = buildArbor(w, graph.NodeID(u), theta)
		}
		e.arbs[u] = a
		if len(a.nodes) > maxArb {
			maxArb = len(a.nodes)
		}
		for _, v := range a.nodes {
			e.roots[v] = append(e.roots[v], int32(u))
		}
	}
	e.val = make([]float64, maxArb)
	return e
}

// NumNodes implements the estimator interface.
func (e *Estimator) NumNodes() int { return len(e.arbs) }

// Spread returns the current heuristic spread estimate: the sum over all
// nodes of their activation probability in their own arborescence.
func (e *Estimator) Spread() float64 {
	total := 0.0
	for _, p := range e.ap {
		total += p
	}
	return total
}

// evalRoot computes the activation probability of the arborescence root
// under the committed seed set plus the optional extra seed (extra < 0 for
// none). IC combines child contributions as independent attempts; LT sums
// them (linear on trees/DAGs), clamped to 1.
func (e *Estimator) evalRoot(a *arbor, extra graph.NodeID) float64 {
	val := e.val[:len(a.nodes)]
	for i, node := range a.nodes {
		if e.inS[node] || node == extra {
			val[i] = 1
			continue
		}
		switch e.mode {
		case cascade.IC:
			q := 1.0
			for _, ce := range a.children[i] {
				q *= 1 - val[ce.child]*ce.p
			}
			val[i] = 1 - q
		case cascade.LT:
			sum := 0.0
			for _, ce := range a.children[i] {
				sum += val[ce.child] * ce.p
			}
			if sum > 1 {
				sum = 1
			}
			val[i] = sum
		}
	}
	return val[len(a.nodes)-1]
}

// Gain returns the heuristic marginal gain of adding x: the total increase
// in activation probability across every arborescence containing x.
func (e *Estimator) Gain(x graph.NodeID) float64 {
	if e.inS[x] {
		return 0
	}
	delta := 0.0
	for _, r := range e.roots[x] {
		delta += e.evalRoot(e.arbs[r], x) - e.ap[r]
	}
	return delta
}

// Add commits x to the seed set and refreshes the activation probability
// of every affected root.
func (e *Estimator) Add(x graph.NodeID) {
	if e.inS[x] {
		return
	}
	e.inS[x] = true
	for _, r := range e.roots[x] {
		e.ap[r] = e.evalRoot(e.arbs[r], -1)
	}
}

// Seeds returns the committed seed set (ascending ids).
func (e *Estimator) Seeds() []graph.NodeID {
	var out []graph.NodeID
	for u, in := range e.inS {
		if in {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}
