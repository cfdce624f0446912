package credist

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"credist/internal/celf"
)

// fullPassSelection is a rival-only selection the way it ran before
// singleton bounds: rivals committed to a clone of p, then CELF pricing
// every candidate in its first pass.
func fullPassSelection(p *Planner, k int, o *Objective) celf.Result {
	work := p.Clone()
	for _, r := range o.Blocked {
		work.Add(r)
	}
	return celf.Run(work.eng, k, celf.Options{Workers: work.eng.Workers(), Costs: o.Costs, Blocked: o.Blocked})
}

// requireSameSelection fails unless got and want hold the same seeds and
// bit-equal gains.
func requireSameSelection(t *testing.T, label string, got, want celf.Result) {
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

// topSingletons returns the n nodes with the highest singleton gain
// (gain desc, id asc).
func topSingletons(m *Model, n int) []NodeID {
	all := make([]NodeID, m.Dataset().NumUsers())
	for i := range all {
		all[i] = NodeID(i)
	}
	gains := m.Gains(nil, all)
	slices.SortStableFunc(all, func(a, b NodeID) int {
		switch {
		case gains[a] > gains[b]:
			return -1
		case gains[a] < gains[b]:
			return 1
		}
		return int(a - b)
	})
	return all[:n]
}

// TestRivalOnlySelectionsUseBounds pins the facade entry points of
// rival-only selection — Model.SelectSeedsObj and
// PartitionedPlanner.SelectSeedsObj at 1-4 partitions — to the seeds and
// bit-equal gains of a full first pass, with fewer lookups than the
// candidate pool, while audience, window, and budgeted selections keep
// pricing every candidate.
func TestRivalOnlySelectionsUseBounds(t *testing.T) {
	m := Learn(Generate(tinyConfig(21)), Options{Lambda: 0.001})
	n := m.Dataset().NumUsers()
	top := topSingletons(m, 2)
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + float64(i%5)/4
	}
	const k = 8
	for _, o := range []*Objective{
		{Blocked: top},
		{Blocked: []NodeID{top[0], 7, 150}},
		{Blocked: top[1:], Costs: costs},
		{Costs: costs},
	} {
		label := fmt.Sprintf("blocked %v costs %t", o.Blocked, o.Costs != nil)
		want := fullPassSelection(m.NewPlanner(), k, o)
		pool := n - len(o.Blocked)
		check := func(label string, got celf.Result) {
			t.Helper()
			requireSameSelection(t, label, got, want)
			if got.Lookups >= pool {
				t.Errorf("%s: %d lookups, no fewer than the %d-candidate pool", label, got.Lookups, pool)
			}
		}
		got, err := m.SelectSeedsObj(k, o)
		if err != nil {
			t.Fatal(err)
		}
		check(label+" Model", got)
		for parts := 1; parts <= 4; parts++ {
			pp, err := m.NewPlanner().Partition(parts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pp.SelectSeedsObj(m, k, o)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s partitions %d", label, parts), got)
		}
	}

	// Objectives that reprice gains, and budgets, keep the full pass.
	audience := make([]NodeID, 0, n/2)
	for u := 0; u < n; u += 2 {
		audience = append(audience, NodeID(u))
	}
	for name, o := range map[string]*Objective{
		"audience": {Audience: audience, Blocked: top[:1]},
		"window":   {Windowed: true, Window: 5, Blocked: top[:1]},
		"budget":   {Budget: 4, Blocked: top[:1]},
	} {
		got, err := m.SelectSeedsObj(k, o)
		if err != nil {
			t.Fatal(err)
		}
		if pool := n - len(o.Blocked); got.Lookups < pool {
			t.Errorf("%s: %d lookups, below the %d-candidate first pass", name, got.Lookups, pool)
		}
	}
}

// TestConcurrentRivalOnlySelections races the lazy bound computation:
// concurrent first rival-only selections on one one-engine coordinator
// (the serving shape of an unpartitioned model) all see the same bounds
// and answer identically (-race checks the handoff).
func TestConcurrentRivalOnlySelections(t *testing.T) {
	m := Learn(Generate(tinyConfig(22)), Options{Lambda: 0.001})
	base := m.NewPlanner()
	pp, err := base.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	o := &Objective{Blocked: topSingletons(m, 2)}
	want := fullPassSelection(base, 6, o)
	results := make([]celf.Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pp.SelectSeedsObj(m, 6, o)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		requireSameSelection(t, fmt.Sprintf("selection %d", i), res, want)
	}
}

// rivalOnlyModel is the full flixster-small preset the rival-only lookup
// gate and BenchmarkSelectRivalOnly run on, learned once.
var rivalOnlyModel = sync.OnceValue(func() *Model {
	ds, err := GeneratePreset("flixster-small")
	if err != nil {
		panic(err)
	}
	return Learn(ds, Options{Lambda: 0.001})
})

// TestRivalOnlySelectionLookups is the deterministic gate on singleton
// bounds: a k=20 selection against the two top singleton-gain rivals on
// flixster-small makes at most users/10 gain lookups (a full first pass
// alone makes users-2), and returns the full-pass seeds and gains.
func TestRivalOnlySelectionLookups(t *testing.T) {
	m := rivalOnlyModel()
	n := m.Dataset().NumUsers()
	o := &Objective{Blocked: topSingletons(m, 2)}
	got, err := m.SelectSeedsObj(20, o)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSelection(t, "flixster-small", got, fullPassSelection(m.NewPlanner(), 20, o))
	t.Logf("k=20 against rivals %v: %d lookups over %d users", o.Blocked, got.Lookups, n)
	if got.Lookups > n/10 {
		t.Errorf("k=20 rival-only selection made %d lookups, gate is users/10 = %d", got.Lookups, n/10)
	}
}
