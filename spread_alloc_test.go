package credist

import "testing"

// TestSpreadAllocs is the allocation gate on exact spread evaluation: the
// evaluator reuses one credit scratch per call across the actions it
// walks, so a call allocates for its two sets (seeds, actions seen) and
// the scratch, not once per touched action. On this configuration a
// per-action scratch cost 211 allocs per call; the gate is a tenth of the
// touched actions.
func TestSpreadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	m := oneBaseModel()
	nonHub, hub := oneBaseSeeds(m)
	seeds := []NodeID{hub, nonHub}
	touched := 0 // actions the seeds performed, counted with overlap
	for _, s := range seeds {
		touched += m.Dataset().Log.ActionCount(s)
	}
	ev := m.eval()
	obj := &Objective{Windowed: true, Window: 1e9}
	cobj, err := m.coreObjective(obj, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		spread func()
	}{
		{"Spread", func() { m.Spread(seeds) }},
		{"SpreadObj", func() { ev.SpreadObj(seeds, cobj) }},
	} {
		allocs := testing.AllocsPerRun(20, tc.spread)
		t.Logf("%s over %d touched actions: %.0f allocs per call", tc.name, touched, allocs)
		if allocs > float64(touched)/10 {
			t.Errorf("%s: %.0f allocs per call over %d touched actions, gate is a tenth of that", tc.name, allocs, touched)
		}
	}
}
