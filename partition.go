package credist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/partition"
)

// PartitionRange is a half-open influencer-row range [Lo, Hi) owned by one
// engine partition.
type PartitionRange = partition.Range

// PartitionStats is one partition's accounting row: its row range, live UC
// entries, and the heap/mapped split of its resident bytes.
type PartitionStats = partition.Stats

// SlicePaths returns the canonical snapshot-slice file names for a model
// split n ways: "<modelPath>.slice-<i>-of-<n>". `credist serve -partitions`
// writes and reopens slices under these names, so a checkpointed partition
// set can be found again from the model path alone.
func SlicePaths(modelPath string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s.slice-%d-of-%d", modelPath, i, n)
	}
	return out
}

// PartitionedPlanner serves the model as a set of self-contained row-range
// engine partitions behind a scatter-gather coordinator — or as one full
// engine behind the same coordinator (Partition(1)): every query fans
// over the engines and merges by summation, and every answer is
// bit-identical at any partition count (see internal/partition). It is
// immutable once built — queries clone the partitions they would mutate —
// so any number of goroutines may query it concurrently; ingest derives a
// successor with Extend.
type PartitionedPlanner struct {
	coord *partition.Coordinator
	// mapped holds the file mappings behind mmap-opened slices (empty for
	// heap loads and in-memory partitions); Close releases them. Successors
	// built by Extend share the mappings but do not own them — close the
	// planner that opened the files, and only after every successor is gone.
	mapped []*core.MappedSnapshot
	// bounds holds the partitions' singleton gains for rival-only
	// selections (objective.go), computed on the first one.
	bounds singletonBounds
}

// Partition splits the planner's scanned engine into n contiguous
// near-even row-range partitions sharing the frozen shards (nothing is
// copied), wrapped in a coordinator. n <= 1 wraps a clone of the whole
// engine instead of a slice: the one-engine coordinator a serving layer
// answers an unpartitioned model through. The planner must not hold
// committed seeds. The receiver stays usable: it is frozen first, so its
// later mutations go copy-on-write instead of corrupting the shared rows.
func (p *Planner) Partition(n int) (*PartitionedPlanner, error) {
	if len(p.eng.Seeds()) > 0 {
		return nil, core.ErrSeedsCommitted
	}
	p.eng.Freeze()
	ranges := partition.SplitRanges(p.eng.NumNodes(), n)
	if len(ranges) == 1 {
		return wrapEngine(p.eng.Clone()), nil
	}
	parts := make([]*core.Engine, len(ranges))
	for i, r := range ranges {
		var err error
		if parts[i], err = p.eng.Slice(r.Lo, r.Hi); err != nil {
			return nil, err
		}
	}
	coord, err := partition.New(parts, p.eng.Workers())
	if err != nil {
		return nil, err
	}
	return &PartitionedPlanner{coord: coord}, nil
}

// wrapEngine puts one full, frozen engine behind a coordinator. The
// planner never mutates it (queries clone), so it may be shared.
func wrapEngine(eng *core.Engine) *PartitionedPlanner {
	coord, err := partition.New([]*core.Engine{eng}, eng.Workers())
	if err != nil {
		// A full engine covers its universe by construction.
		panic(fmt.Sprintf("credist: wrap a full engine: %v", err))
	}
	return &PartitionedPlanner{coord: coord}
}

// LoadPartitions restores a partitioned model from snapshot-slice files:
// each slice is loaded (memory-mapped when mmap is set), lineage-checked
// against the dataset, and the set is validated to tile the user universe
// exactly — overlapping or gapped row ranges are rejected naming both
// offending ranges. Like LoadModel, the dataset's log may extend past the
// slices' recorded scan: each partition appends only its rows of the
// unscanned tail, and any stored seed prefix is dropped. The returned
// model carries the slices' learned parameters and stored options (pass
// the zero Options to adopt them) but no scanned full engine — its lazy
// base would be a fresh scan; serve queries through the planner instead.
func LoadPartitions(ds *Dataset, paths []string, mmap bool, opts Options) (*Model, *PartitionedPlanner, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("credist: no slice paths")
	}
	var mapped []*core.MappedSnapshot
	closeMapped := func() {
		for _, ms := range mapped {
			ms.Close()
		}
	}
	engines := make([]*core.Engine, len(paths))
	parts := make([]core.SnapshotParts, len(paths))
	for i, path := range paths {
		var err error
		if mmap {
			var ms *core.MappedSnapshot
			engines[i], parts[i], ms, err = core.OpenSnapshotMapped(path)
			if err == nil {
				mapped = append(mapped, ms)
			}
		} else {
			var f *os.File
			if f, err = os.Open(path); err == nil {
				engines[i], parts[i], err = core.ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
				f.Close()
			}
		}
		if err != nil {
			closeMapped()
			return nil, nil, fmt.Errorf("credist: partition %d (%s): %w", i, path, err)
		}
	}
	m, err := bindSnapshots(ds, opts, engines, parts, paths)
	var coord *partition.Coordinator
	if err == nil {
		coord, err = partition.New(engines, engines[0].Workers())
	}
	if err != nil {
		closeMapped()
		return nil, nil, err
	}
	return m, &PartitionedPlanner{coord: coord, mapped: mapped}, nil
}

// LoadModelPartitioned opens modelPath as n partitions: when the canonical
// slice files (SlicePaths) already sit next to the model they are opened
// directly — the full snapshot is never touched, and with mmap no row is
// parsed — otherwise the full snapshot is heap-loaded once, split with
// Partition, the slices are written with SaveSlices, and the load
// proceeds from them. The returned paths name the slice files in
// partition order.
func LoadModelPartitioned(ds *Dataset, modelPath string, n int, mmap bool, opts Options) (*Model, *PartitionedPlanner, []string, error) {
	if n < 1 {
		n = 1
	}
	paths := SlicePaths(modelPath, n)
	missing := false
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			missing = true
			break
		}
	}
	if missing {
		conv, err := LoadModel(ds, modelPath, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		split, err := conv.NewPlanner().Partition(n)
		if err == nil {
			err = split.SaveSlices(conv, conv.prefix, paths)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		// conv (and its full heap engine) is dropped here; the model served
		// from is rebuilt from the slices so nothing retains the full copy.
	}
	m, pp, err := LoadPartitions(ds, paths, mmap, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	// A version-5 whole-model snapshot carries the approximate tier's RR
	// sketch, which slices do not: its samples span the full universe, so
	// it cannot be split along row ranges. Re-read just the sketch from the
	// model file (cheap: the mapped open parses no cell, and the sketch is
	// decoded onto the heap before the mapping closes) so a partitioned
	// deployment still answers bounded-error queries — from the fixed pool.
	m.approx.restored = readSnapshotSketch(modelPath, ds, pp.NumActions())
	return m, pp, paths, nil
}

// readSnapshotSketch reads only the RR sketch from a whole-model snapshot
// file, returning nil for missing files, unreadable or pre-version-5
// snapshots, and sketchless version-5 files. The sketch is an optional
// accelerator — a partitioned start must not fail because the model file
// next to healthy slices went stale — so every mismatch degrades to "no
// sketch": the file's lineage must match the dataset and its scan must
// cover exactly the numActions the partitions serve (a log tail appended
// past the snapshot invalidates the walks the same way LoadModel drops
// the sketch, and a model file older than re-checkpointed slices sampled
// a log the partitions no longer serve).
func readSnapshotSketch(path string, ds *Dataset, numActions int) *core.RRSketch {
	_, parts, ms, err := core.OpenSnapshotMapped(path)
	if err != nil {
		return nil
	}
	// The sketch section is always decoded onto the heap (only UC shards
	// alias the mapping), so the mapping can close before the sketch is
	// used.
	ms.Close()
	lin := parts.Lineage
	if parts.Sketch == nil || lin.NumActions != numActions || lin.Check(ds.Graph, ds.Log) != nil {
		return nil
	}
	return parts.Sketch
}

// Save checkpoints the planner's state as one whole-model snapshot file at
// path, written to a temp file and renamed into place. The planner must
// hold one full engine (a one-engine coordinator, as a serving layer keeps
// for an unpartitioned model) belonging to m's lineage (same credit
// parameters and truncation threshold) and covering exactly m's log; it is
// how a server checkpoints its live, possibly ingest-extended, state
// without a second scan. prefix, if non-nil, is the computed seed prefix
// to persist alongside — it must have been selected against exactly this
// state, or a restart would serve seeds the restored model never chose.
// The model's RR sketch and provenance index ride along as in Model.Save.
func (pp *PartitionedPlanner) Save(m *Model, prefix *SeedPrefix, path string) error {
	engines := pp.coord.Engines()
	if len(engines) != 1 {
		return fmt.Errorf("credist: planner holds %d partitions, a full snapshot needs one engine (write slices with SaveSlices)", len(engines))
	}
	if err := m.checkLineage(engines[0]); err != nil {
		return err
	}
	return m.saveEngine(path, engines[0], core.SnapshotParts{Prefix: prefix})
}

// SaveSlices checkpoints the planner's partitions as snapshot-slice files,
// one per partition in partition order, each written to a temp file and
// renamed into place. The partitions must cover exactly the model's log
// (the rule Save applies); prefix, if non-nil, rides in every slice so a
// restart from them resumes seed selection. A contiguous set of slices
// tiling [0, NumUsers) reassembles the model exactly; LoadPartitions
// validates the tiling at load.
func (pp *PartitionedPlanner) SaveSlices(m *Model, prefix *SeedPrefix, paths []string) error {
	engines := pp.coord.Engines()
	if len(paths) != len(engines) {
		return fmt.Errorf("credist: %d slice paths for %d partitions", len(paths), len(engines))
	}
	if err := m.checkLineage(engines[0]); err != nil {
		return err
	}
	for i, eng := range engines {
		lo, hi := eng.PartitionRange()
		if err := m.saveEngine(paths[i], eng, core.SnapshotParts{Prefix: prefix, Slice: &core.RowRange{Lo: lo, Hi: hi}}); err != nil {
			return err
		}
	}
	return nil
}

// samePrefix reports whether two stored seed prefixes describe the same
// selection (both nil counts as same).
func samePrefix(a, b *SeedPrefix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Seeds) != len(b.Seeds) {
		return false
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] || a.Gains[i] != b.Gains[i] || a.LookupsAt[i] != b.LookupsAt[i] {
			return false
		}
	}
	return true
}

// writeFileAtomic writes via a uniquely named temp file in the target
// directory and renames it into place, so a crash mid-write never leaves a
// truncated file at the path, and a reader that opened or mapped the old
// file keeps its bytes. Every file the package writes goes through it.
// The temp file, created 0600, gets mode 0644 before the rename: what
// os.Create yields under the usual umask, so files keep the mode they had
// when they were written in place.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// NumPartitions returns how many partitions the planner fans over.
func (pp *PartitionedPlanner) NumPartitions() int { return pp.coord.NumPartitions() }

// NumUsers returns the global user-universe size.
func (pp *PartitionedPlanner) NumUsers() int { return pp.coord.NumUsers() }

// NumActions returns the global scanned action count.
func (pp *PartitionedPlanner) NumActions() int { return pp.coord.NumActions() }

// Ranges returns the per-partition row ranges in partition order.
func (pp *PartitionedPlanner) Ranges() []PartitionRange { return pp.coord.Ranges() }

// Stats returns per-partition accounting in partition order.
func (pp *PartitionedPlanner) Stats() []PartitionStats { return pp.coord.Stats() }

// Entries returns the live UC entry count summed over partitions — equal
// to the single-engine count, since every cell lives in exactly one
// partition.
func (pp *PartitionedPlanner) Entries() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.Entries
	}
	return total
}

// HeapBytes sums the partitions' Go-heap shard bytes.
func (pp *PartitionedPlanner) HeapBytes() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.HeapBytes
	}
	return total
}

// MappedBytes sums the bytes partitions still serve out of mapped slice
// files.
func (pp *PartitionedPlanner) MappedBytes() int64 {
	var total int64
	for _, st := range pp.coord.Stats() {
		total += st.MappedBytes
	}
	return total
}

// ResidentBytes returns HeapBytes plus MappedBytes.
func (pp *PartitionedPlanner) ResidentBytes() int64 { return pp.HeapBytes() + pp.MappedBytes() }

// RowStoreBackend reports "mmap" while any partition still aliases a
// mapped slice file, "heap" otherwise.
func (pp *PartitionedPlanner) RowStoreBackend() string {
	for _, st := range pp.coord.Stats() {
		if st.RowStore == "mmap" {
			return "mmap"
		}
	}
	return "heap"
}

// DeltaEntries sums the UC entries the partitions' appended action tails
// contributed (zero for freshly loaded or compacted partitions).
func (pp *PartitionedPlanner) DeltaEntries() int64 {
	var total int64
	for _, eng := range pp.coord.Engines() {
		total += eng.DeltaEntries()
	}
	return total
}

// DeltaActions returns how many appended actions sit outside the frozen
// base. Every partition appends the same actions, so this is not a sum.
func (pp *PartitionedPlanner) DeltaActions() int {
	return pp.coord.Engines()[0].DeltaActions()
}

// Spread computes sigma_cd(S) scatter-gather: per seed, its exact
// marginal gain from the row's owning partition, committed by broadcast —
// the telescoped sum that CELF's own Result.Spread() uses. The value is
// the mathematically exact CD spread and is bit-identical across
// partition counts, worker counts, and row-store backends; it is not
// guaranteed bit-identical to the unpartitioned evaluator, which
// accumulates the same total in per-action order.
func (pp *PartitionedPlanner) Spread(seeds []NodeID) (float64, error) {
	return pp.coord.Spread(seeds, nil, nil)
}

// Gains evaluates each candidate's marginal gain against the base seed
// set, every candidate priced exactly by its row's owner. Bit-identical
// to Planner.Gain after the same Adds, at any partition count.
func (pp *PartitionedPlanner) Gains(base, candidates []NodeID) ([]float64, error) {
	return pp.coord.Gains(base, candidates, nil, nil)
}

// ExplainSeed decomposes candidate x's marginal gain into its top credit
// paths, answered wholly by the partition owning x's row. The explained
// Gain is bit-for-bit Gains(nil, {x})[0] at any partition count.
func (pp *PartitionedPlanner) ExplainSeed(x NodeID, top int) (SeedExplanation, error) {
	return pp.coord.ExplainSeed(x, top)
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// per-seed shares gathered from each seed's owning partition, folded in
// input order (so they sum bit-exactly to Total), with the gathered paths
// re-sorted deterministically. Bit-identical to Model.ExplainReach at any
// partition count.
func (pp *PartitionedPlanner) ExplainReach(seeds []NodeID, v NodeID, top int) (ReachExplanation, error) {
	return pp.coord.ExplainReach(seeds, v, top)
}

// NewSelection starts a growable CELF selection over fresh partition
// clones: the coordinator-side lazy-forward heap with the first-iteration
// gain pass fanned over the workers. Seeds and gains are bit-identical to
// a single-engine selection; the selection's state lives in the clones it
// owns.
func (pp *PartitionedPlanner) NewSelection() *GrowableSelection {
	return &GrowableSelection{sel: pp.coord.NewSelection(nil, celf.Options{})}
}

// ResumeSelection is NewSelection continuing from a previously computed
// prefix (nil starts fresh): the prefix seeds are committed scatter-gather
// with no gain evaluations, and the continuation is bit-identical to an
// uninterrupted run — even when the prefix was computed at a different
// partition count.
func (pp *PartitionedPlanner) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	if prefix == nil {
		return pp.NewSelection(), nil
	}
	sel, err := pp.coord.ResumeSelection(*prefix, celf.Options{})
	if err != nil {
		return nil, err
	}
	return &GrowableSelection{sel: sel}, nil
}

// Extend derives the successor planner for m — this planner's model after
// an Ingest: every partition clones (frozen shards shared) and scans only
// its rows of the appended action tail, in parallel. The receiver keeps
// serving unchanged. The model must extend the log the partitions cover.
func (pp *PartitionedPlanner) Extend(m *Model) (*PartitionedPlanner, error) {
	if pl, ml := pp.coord.Engines()[0].Lambda(), m.opts.Lambda; pl != ml {
		return nil, fmt.Errorf("credist: partitions were scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, gn := pp.coord.NumUsers(), m.ds.Graph.NumNodes(); pn > gn {
		return nil, fmt.Errorf("credist: partition universe (%d users) exceeds the model's graph (%d nodes)", pn, gn)
	}
	coord, err := pp.coord.Append(m.ds.Graph, m.ds.Log, ActionID(pp.coord.NumActions()))
	if err != nil {
		return nil, err
	}
	// The successor aliases the receiver's mapped shards copy-on-write but
	// does not own the mappings; Close on the opener releases them.
	return &PartitionedPlanner{coord: coord}, nil
}

// Compact folds every partition's appended delta into its frozen base, as
// Planner.Compact does for one engine; results are unchanged. The planner
// is otherwise immutable, so Compact is only for one no query has seen
// yet: the serving layer compacts an Extend successor before publishing
// it.
func (pp *PartitionedPlanner) Compact() {
	for _, eng := range pp.coord.Engines() {
		eng.Compact()
	}
}

// Close releases the file mappings behind mmap-opened slices; a no-op
// otherwise. Call it only once no query, selection, or Extend successor
// derived from this planner is in use.
func (pp *PartitionedPlanner) Close() error {
	var first error
	for _, ms := range pp.mapped {
		if err := ms.Close(); err != nil && first == nil {
			first = err
		}
	}
	pp.mapped = nil
	return first
}
