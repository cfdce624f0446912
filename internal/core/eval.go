package core

import (
	"fmt"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// Evaluator computes the CD spread objective sigma_cd(S) (Eq. 8) for
// arbitrary seed sets directly from the training propagations, without the
// UC structure. It exploits that Gamma_{S,u}(a) is nonzero only for
// actions some seed performed, so evaluating a set touches only the
// propagation DAGs its members participate in. It is the reference
// implementation the Engine is property-tested against, and the tool the
// experiments use to score seed sets chosen by other models (Figure 6) and
// to predict the spread of test-set initiators (Figures 3 and 4).
type Evaluator struct {
	numUsers  int
	au        []int32
	actionsOf [][]int32
	props     []*actionlog.Propagation
	gammas    [][][]float64 // per action, per child, aligned with Parents
	credit    CreditModel   // the rule gammas were computed with
}

// NewEvaluator precomputes propagation DAGs and direct credits for the
// training log. model nil means SimpleCredit.
func NewEvaluator(g *graph.Graph, train *actionlog.Log, model CreditModel) *Evaluator {
	if model == nil {
		model = SimpleCredit{}
	}
	ev := &Evaluator{
		numUsers:  train.NumUsers(),
		au:        make([]int32, train.NumUsers()),
		actionsOf: make([][]int32, train.NumUsers()),
		props:     make([]*actionlog.Propagation, train.NumActions()),
		gammas:    make([][][]float64, train.NumActions()),
		credit:    model,
	}
	for u := 0; u < train.NumUsers(); u++ {
		ev.au[u] = int32(train.ActionCount(graph.NodeID(u)))
	}
	for a := 0; a < train.NumActions(); a++ {
		p := actionlog.BuildPropagation(train, g, actionlog.ActionID(a))
		ev.props[a] = p
		ga := make([][]float64, len(p.Users))
		for i, u := range p.Users {
			ev.actionsOf[u] = append(ev.actionsOf[u], actionlog.ActionID(a))
			if len(p.Parents[i]) == 0 {
				continue
			}
			gi := make([]float64, len(p.Parents[i]))
			for k, j := range p.Parents[i] {
				gi[k] = model.Gamma(p, int32(i), j)
			}
			ga[i] = gi
		}
		ev.gammas[a] = ga
	}
	return ev
}

// NumUsers returns the user-universe size.
func (ev *Evaluator) NumUsers() int { return ev.numUsers }

// NumActions returns how many actions the evaluator covers.
func (ev *Evaluator) NumActions() int { return len(ev.props) }

// Extend returns a new evaluator over the combined log, computing
// propagation DAGs and direct credits only for the tail
// [from, log.NumActions()): log must contain the evaluator's existing
// actions as [0, from) and from must equal NumActions(). The receiver is
// untouched — prefix DAGs and gammas are shared, per-user state is
// rebuilt — so concurrent Spread calls on the old evaluator keep their
// answers while the successor is assembled. Spread on the result is
// bit-identical to NewEvaluator over the combined log with the same
// credit rule: the shared prefix structures are per-action, and the A_u
// normalizers are recomputed from the combined log exactly as
// NewEvaluator would.
func (ev *Evaluator) Extend(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) (*Evaluator, error) {
	if int(from) != len(ev.props) {
		return nil, fmt.Errorf("core: extend from action %d, but evaluator covers %d", from, len(ev.props))
	}
	if log.NumActions() < int(from) {
		return nil, fmt.Errorf("core: combined log has %d actions, fewer than the %d already covered", log.NumActions(), from)
	}
	if log.NumUsers() > g.NumNodes() {
		return nil, fmt.Errorf("core: log universe (%d users) exceeds the graph (%d nodes)", log.NumUsers(), g.NumNodes())
	}
	if log.NumUsers() < ev.numUsers {
		return nil, fmt.Errorf("core: log universe shrank: %d users, evaluator has %d", log.NumUsers(), ev.numUsers)
	}
	ne := &Evaluator{
		numUsers:  log.NumUsers(),
		au:        make([]int32, log.NumUsers()),
		actionsOf: make([][]int32, log.NumUsers()),
		props:     make([]*actionlog.Propagation, log.NumActions()),
		gammas:    make([][][]float64, log.NumActions()),
		credit:    ev.credit,
	}
	for u := 0; u < log.NumUsers(); u++ {
		ne.au[u] = int32(log.ActionCount(graph.NodeID(u)))
	}
	copy(ne.actionsOf, ev.actionsOf)
	copy(ne.props, ev.props)
	copy(ne.gammas, ev.gammas)
	appended := make(map[graph.NodeID][]int32)
	for a := int(from); a < log.NumActions(); a++ {
		p := actionlog.BuildPropagation(log, g, actionlog.ActionID(a))
		ne.props[a] = p
		ga := make([][]float64, len(p.Users))
		for i, u := range p.Users {
			appended[u] = append(appended[u], int32(a))
			if len(p.Parents[i]) == 0 {
				continue
			}
			gi := make([]float64, len(p.Parents[i]))
			for k, j := range p.Parents[i] {
				gi[k] = ev.credit.Gamma(p, int32(i), j)
			}
			ga[i] = gi
		}
		ne.gammas[a] = ga
	}
	// Touched users get fresh action lists; everyone else shares the
	// receiver's (never mutated again).
	for u, tail := range appended {
		merged := make([]int32, 0, len(ne.actionsOf[u])+len(tail))
		ne.actionsOf[u] = append(append(merged, ne.actionsOf[u]...), tail...)
	}
	return ne, nil
}

// Spread computes sigma_cd(S) = sum_u kappa_{S,u}. Each seed with at least
// one training action contributes exactly 1 (its own kappa); every other
// participant u of an action some seed performed contributes
// Gamma_{S,u}(a)/A_u, where Gamma is the forward credit DP over the
// propagation DAG (Eq. 5 generalized to sets).
func (ev *Evaluator) Spread(seeds []graph.NodeID) float64 {
	inS := make(map[graph.NodeID]bool, len(seeds))
	spread := 0.0
	for _, s := range seeds {
		if inS[s] {
			continue
		}
		inS[s] = true
		if ev.au[s] > 0 {
			spread += 1
		}
	}
	// Union of actions any seed performed, deduplicated. The walk follows
	// the input seed order (not map iteration), so the floating-point
	// summation order — and hence the returned spread — is deterministic
	// for a given seed slice.
	seen := make(map[actionlog.ActionID]bool)
	val := ev.scratch(seeds)
	for _, s := range seeds {
		for _, a := range ev.actionsOf[s] {
			if seen[a] {
				continue
			}
			seen[a] = true
			spread += ev.actionSpread(a, inS, val)
		}
	}
	return spread
}

// scratch returns the per-participant credit buffer one Spread or
// SpreadObj call reuses across its actions, sized to the largest action
// any seed performed. Every entry an action reads is written earlier in
// the same action's walk, so reuse needs no clearing.
func (ev *Evaluator) scratch(seeds []graph.NodeID) []float64 {
	n := 0
	for _, s := range seeds {
		for _, a := range ev.actionsOf[s] {
			n = max(n, len(ev.props[a].Users))
		}
	}
	return make([]float64, n)
}

// actionSpread returns sum over non-seed participants u of action a of
// Gamma_{S,u}(a)/A_u, using val (at least as long as a's participant
// list) as scratch.
func (ev *Evaluator) actionSpread(a actionlog.ActionID, inS map[graph.NodeID]bool, val []float64) float64 {
	p := ev.props[a]
	val = val[:len(p.Users)]
	total := 0.0
	for i, u := range p.Users {
		if inS[u] {
			val[i] = 1
			continue
		}
		sum := 0.0
		gi := ev.gammas[a][i]
		for k, j := range p.Parents[i] {
			if val[j] > 0 {
				sum += val[j] * gi[k]
			}
		}
		val[i] = sum
		if sum > 0 {
			total += sum / float64(ev.au[u])
		}
	}
	return total
}

// SetCredit returns Gamma_{S,u}(a) for diagnostics and tests.
func (ev *Evaluator) SetCredit(a actionlog.ActionID, seeds []graph.NodeID, u graph.NodeID) float64 {
	inS := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inS[s] = true
	}
	if inS[u] {
		return 1
	}
	p := ev.props[a]
	target := p.Index(u)
	if target < 0 {
		return 0
	}
	val := make([]float64, len(p.Users))
	for i := range p.Users {
		if inS[p.Users[i]] {
			val[i] = 1
			continue
		}
		sum := 0.0
		gi := ev.gammas[a][i]
		for k, j := range p.Parents[i] {
			sum += val[j] * gi[k]
		}
		val[i] = sum
		if int32(i) == target {
			break
		}
	}
	return val[target]
}

// PairCredit returns kappa_{v,u}: the total credit v earns for influencing
// u across the log, normalized by A_u (Eq. 6). Used by diagnostics.
func (ev *Evaluator) PairCredit(v, u graph.NodeID) float64 {
	if ev.au[u] == 0 {
		return 0
	}
	total := 0.0
	for _, a := range ev.actionsOf[v] {
		total += ev.SetCredit(a, []graph.NodeID{v}, u)
	}
	return total / float64(ev.au[u])
}
