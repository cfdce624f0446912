package serve

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"credist"
	"credist/internal/datagen"
)

// ingestedSnapshot builds a small snapshot, ingests one two-user action,
// and returns the successor together with an offline reference model over
// the combined log: the head model checkpointed and restored with the
// tail appended, which is bit-identical to the ingest by the facade's
// rescan invariant.
func ingestedSnapshot(t *testing.T) (grown *Snapshot, ref *credist.Model) {
	t.Helper()
	ds := credist.Generate(datagen.Config{
		Name: "grow-base", NumUsers: 120, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 60, MeanInfluence: 0.1, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 5,
	})
	sn, err := Build(Source{Dataset: ds, Lambda: 0.001})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next := credist.ActionID(ds.Log.NumActions())
	grown, err = sn.Ingest([]credist.Tuple{
		{User: 0, Action: next, Time: 1},
		{User: 1, Action: next, Time: 2},
	}, false)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if got := grown.parts.DeltaActions(); got != 1 {
		t.Fatalf("extended engines have %d delta actions, want 1", got)
	}
	path := filepath.Join(t.TempDir(), "head.bin")
	if err := sn.Model().Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	combined := *grown.Dataset()
	if ref, err = credist.LoadModel(&combined, path, credist.Options{}); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	return grown, ref
}

// TestIngestSeedsGrowFromExtendedBase is a white-box pin on where the
// post-ingest /seeds selection gets its engines: it must clone the
// snapshot's incrementally extended coordinator (frozen shards shared,
// delta accounting intact) — NOT the grown model's self-contained lazy
// base, which would silently pay a full from-scratch rescan of the
// combined log on the first cold /seeds after every ingest and retain a
// second copy of the UC store for the snapshot's lifetime.
func TestIngestSeedsGrowFromExtendedBase(t *testing.T) {
	grown, ref := ingestedSnapshot(t)
	want := ref.Selection(2)
	// Poison the grown model's lazy base: a rescan would now scan an empty
	// log and price every candidate at 0, so any answer that went through
	// it cannot match the reference.
	grown.Dataset().Log = grown.Dataset().Log.Prefix(0)
	res, cached, err := grown.SelectSeeds(2)
	if err != nil {
		t.Fatalf("SelectSeeds: %v", err)
	}
	if cached {
		t.Fatal("cold post-ingest /seeds reported cached")
	}
	if !slices.Equal(res.Seeds, want.Seeds) || !slices.EqualFunc(res.Gains, want.Gains, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Fatalf("post-ingest /seeds = %v %v, offline %v %v (did /seeds rescan through the model's base?)",
			res.Seeds, res.Gains, want.Seeds, want.Gains)
	}
	if grown.seedSel == nil || grown.Selections() != 1 {
		t.Fatalf("cold /seeds ran %d selections, want 1", grown.Selections())
	}
}

// TestIngestReachExplainsWithoutIndexBuild pins the post-ingest
// why-reach path: it is answered from the coordinator's own rows, so it
// builds no provenance index (the model's index describes its lazy base,
// a rescan of the whole combined log) and still matches the offline
// Model.ExplainReach bit for bit.
func TestIngestReachExplainsWithoutIndexBuild(t *testing.T) {
	grown, ref := ingestedSnapshot(t)
	seeds := []credist.NodeID{0, 3, 9, 1}
	for _, v := range []credist.NodeID{1, 7, 40} {
		got, err := grown.ExplainReach(seeds, v, 10)
		if err != nil {
			t.Fatalf("ExplainReach: %v", err)
		}
		want := ref.ExplainReach(seeds, v, 10)
		if math.Float64bits(got.Total) != math.Float64bits(want.Total) || !reflect.DeepEqual(got, want) {
			t.Errorf("target %d: served reach %+v, offline %+v", v, got, want)
		}
	}
	if b := grown.ProvStats().Builds; b != 0 {
		t.Fatalf("post-ingest reach explanations built the provenance index %d times, want 0", b)
	}
}
