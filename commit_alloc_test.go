package credist

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// oneBaseModel is the reduced flixster configuration the one-base commit
// gate and BenchmarkGainsOneBase's small leg run on, learned once.
var oneBaseModel = sync.OnceValue(func() *Model {
	return Learn(Generate(benchFlixsterCfg()), Options{Lambda: 0.001})
})

// oneBaseSeeds picks the two base seeds the one-base gate prices against:
// a non-hub user (the lowest id performing the median action count among
// active users) and the hub (the top CELF seed, whose commit touches the
// most credit rows).
func oneBaseSeeds(m *Model) (nonHub, hub NodeID) {
	log := m.Dataset().Log
	var counts []int
	for u := 0; u < log.NumUsers(); u++ {
		if n := log.ActionCount(NodeID(u)); n > 0 {
			counts = append(counts, n)
		}
	}
	slices.Sort(counts)
	median := counts[len(counts)/2]
	for u := 0; u < log.NumUsers(); u++ {
		if log.ActionCount(NodeID(u)) == median {
			nonHub = NodeID(u)
			break
		}
	}
	seeds, _ := m.SelectSeeds(1)
	return nonHub, seeds[0]
}

// TestOneBaseCommitAllocs is the allocation gate on copy-free commits: a
// Clone of a frozen planner plus one Add allocates per touched shard
// header and rebuilt row block, not per copied row. The bounds are a
// tenth of what the deep-copying commit allocated on this configuration
// (3,000 allocs for the non-hub base, 28,666 for the hub).
func TestOneBaseCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	m := oneBaseModel()
	p := m.NewPlanner()
	nonHub, hub := oneBaseSeeds(m)
	for _, tc := range []struct {
		name  string
		base  NodeID
		bound float64
	}{
		{"non-hub", nonHub, 3000 / 10},
		{"hub", hub, 28666 / 10},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			p.Clone().Add(tc.base)
		})
		t.Logf("%s base %d: %.0f allocs per Clone+Add", tc.name, tc.base, allocs)
		if allocs > tc.bound {
			t.Errorf("%s base %d: %.0f allocs per Clone+Add, gate is %.0f", tc.name, tc.base, allocs, tc.bound)
		}
	}
}

// TestGainsEmptyBaseReadsBase pins Model.Gains with an empty base: it
// prices candidates straight off the model's frozen base engine, bit for
// bit what a fresh planner answers, and allocates only its result slice
// instead of cloning the planner.
func TestGainsEmptyBaseReadsBase(t *testing.T) {
	m := Learn(Generate(tinyConfig(12)), Options{Lambda: 0.001})
	cands := make([]NodeID, m.Dataset().NumUsers())
	for i := range cands {
		cands[i] = NodeID(i)
	}
	got := m.Gains(nil, cands)
	p := m.NewPlanner()
	for i, c := range cands {
		if want := p.Gain(c); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("Gains(nil)[%d] = %b, planner Gain = %b", c, got[i], want)
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(5, func() { m.Gains(nil, cands) }); allocs > 1 {
		t.Errorf("Gains with an empty base allocates %.0f objects per call, want only the result slice", allocs)
	}
}
