package credist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
)

// Options configures model learning.
type Options struct {
	// Lambda is the UC truncation threshold used during seed selection
	// (Section 5.3; paper default 0.001). Zero keeps every credit.
	Lambda float64
	// SimpleCredit switches the direct-credit rule from the time-aware
	// Eq. (9) (the default) to the equal-split 1/d_in rule.
	SimpleCredit bool
}

// Model is a learned credit-distribution model: the time decay and
// influenceability parameters plus the evaluator of the spread objective
// sigma_cd. Its two expensive scan products — the evaluator and the UC
// credit engine behind NewPlanner — are built lazily, at most once each,
// and then reused: a model restored from a binary snapshot (LoadModel)
// serves planners without ever re-scanning the log, and even a freshly
// learned model pays the Algorithm 2 scan once across any number of
// NewPlanner/Gains/SelectSeeds calls.
type Model struct {
	ds     *Dataset
	opts   Options
	credit core.CreditModel
	eval   func() *core.Evaluator
	base   func() *core.Engine // frozen; NewPlanner hands out clones
	// prefix is a computed CELF seed prefix attached by RecordSeedPrefix
	// or restored by LoadModel from a binary snapshot; Save persists it so
	// a restarted process answers seed queries up to its length without
	// running selection.
	prefix *SeedPrefix
	// mapped is the file mapping behind a LoadModelMapped model (nil
	// otherwise); Close releases it.
	mapped *core.MappedSnapshot
	// approx is the bounded-error serving tier's RR-sample state: a
	// striped, deterministically grown collection of reverse credit walks,
	// seeded either lazily on the first approximate query or from a
	// version-5 snapshot's restored sketch (zero sampling on restart).
	approx approxTier
	// prov is the influence-provenance tier: the credit→actions index
	// behind ExplainSeed/ExplainReach, built lazily or restored from a
	// version-6 snapshot (zero build work on restart).
	prov provTier
	// delays lazily indexes per-(action, participant) delays from the
	// action's first participation — what time-windowed objectives gate
	// on. Derived from the log alone, at most once per model.
	delays func() *core.ActionDelays
	// coord wraps the base engine in a one-engine coordinator, lazily: the
	// query path objective gains and selections share with serving.
	coord func() *PartitionedPlanner
}

// Close releases the file mapping behind a model opened with
// LoadModelMapped; for every other model it is a no-op. It must only be
// called once no planner derived from the model is in use — planners
// share the mapped shards copy-on-write, and their reads fault once the
// mapping is gone.
func (m *Model) Close() error {
	if m == nil {
		return nil
	}
	return m.mapped.Close()
}

// newModel wires a model with a lazily built evaluator and base engine.
func newModel(ds *Dataset, opts Options, credit core.CreditModel) *Model {
	m := &Model{ds: ds, opts: opts, credit: credit}
	m.eval = sync.OnceValue(func() *core.Evaluator {
		return core.NewEvaluator(ds.Graph, ds.Log, credit)
	})
	m.base = sync.OnceValue(func() *core.Engine {
		e := core.NewEngine(ds.Graph, ds.Log, core.Options{Lambda: opts.Lambda, Credit: credit})
		// Compact at exact size and freeze: clones share every shard, and
		// the scan's growth slack is shed once instead of retained for the
		// model's lifetime.
		e.Compact()
		return e
	})
	m.coord = sync.OnceValue(func() *PartitionedPlanner { return wrapEngine(m.base()) })
	m.delays = sync.OnceValue(func() *core.ActionDelays {
		return core.BuildActionDelays(ds.Log)
	})
	m.wireProv()
	return m
}

// Learn fits the CD model to the dataset's action log. Pass the training
// split when the test split must stay held out (the paper's protocol);
// pass the full dataset when the model is used operationally.
func Learn(ds *Dataset, opts Options) *Model {
	var credit core.CreditModel
	if opts.SimpleCredit {
		credit = core.SimpleCredit{}
	} else {
		credit = core.LearnTimeAware(ds.Graph, ds.Log)
	}
	return newModel(ds, opts, credit)
}

// Dataset returns the dataset the model is bound to.
func (m *Model) Dataset() *Dataset { return m.ds }

// Options returns the options the model was learned with.
func (m *Model) Options() Options { return m.opts }

// Spread predicts the expected influence spread sigma_cd of a seed set.
// It is safe for concurrent use: evaluation reads only immutable scan
// products, so any number of goroutines may call Spread (and Gains with an
// empty base set) on a shared Model.
func (m *Model) Spread(seeds []NodeID) float64 { return m.eval().Spread(seeds) }

// Gains returns the marginal gain sigma_cd(S+c) - sigma_cd(S) of every
// candidate c against the base seed set S, batched so the engine scan (or
// clone) is paid once per call rather than once per candidate. It matches
// Planner exactly: Gains(base, cs)[i] is bit-for-bit the value a Planner
// returns from Gain(cs[i]) after Add-ing each base seed in order. An
// empty base reads the model's frozen base engine directly, with no clone.
func (m *Model) Gains(base, candidates []NodeID) []float64 {
	eng := m.base()
	if len(base) > 0 {
		eng = eng.Clone()
		for _, s := range base {
			eng.Add(s)
		}
	}
	out := make([]float64, len(candidates))
	for i, c := range candidates {
		out[i] = eng.Gain(c)
	}
	return out
}

// Ingest returns a new Model extended with a batch of complete new
// propagations, without relearning: the credit parameters stay frozen and
// only the appended tail is processed (prefix propagation DAGs and direct
// credits are shared with the receiver, which keeps answering queries
// unchanged). The batch follows Log.Append's contract — canonical
// (action, time, user) order, action ids starting at the log's current
// NumActions() — and every user must exist in the social graph. Results on
// the new model are bit-identical to a model over the combined dataset
// with the same parameters (e.g. one restored by LoadModel).
func (m *Model) Ingest(tuples []Tuple) (*Model, error) {
	newLog, err := m.ds.Log.Append(tuples)
	if err != nil {
		return nil, err
	}
	if newLog.NumUsers() > m.ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: ingested log universe (%d users) exceeds the graph (%d nodes)",
			newLog.NumUsers(), m.ds.Graph.NumNodes())
	}
	eval, err := m.eval().Extend(m.ds.Graph, newLog, ActionID(m.ds.Log.NumActions()))
	if err != nil {
		return nil, err
	}
	// The grown model gets a self-contained lazy base (a fresh scan of the
	// combined log on first use), NOT one chained off the receiver's:
	// capturing the predecessor here would retain every prior generation's
	// model, log copy, and evaluator for as long as the lazy base stays
	// unforced — unbounded memory on a server that trickles ingests. A
	// caller who wants the cheap clone+tail-scan derivation uses
	// ExtendPlanner with an explicit planner, which retains nothing.
	grown := newModel(&Dataset{Name: m.ds.Name, Graph: m.ds.Graph, Log: newLog}, m.opts, m.credit)
	grown.eval = func() *core.Evaluator { return eval }
	return grown, nil
}

// ExtendPlanner derives a planner for this (post-Ingest) model from one
// scanned against the pre-ingest log: the planner is cloned — frozen
// shards shared, not copied — and only the appended action tail is
// scanned. The source planner must come from the model lineage this model
// was ingested from (same credit parameters, a prefix of the same log)
// and must not have committed seeds. Mismatched credit parameters,
// truncation thresholds, and user universes are rejected; a planner from
// a different log that happens to agree on all of those (possible only
// with the parameterless simple-credit rule) cannot be detected cheaply
// and yields meaningless results — pairing planners with their own model
// lineage is the caller's contract. Gains and CELF selections on the
// result are bit-identical to those of a freshly scanned NewPlanner, at a
// fraction of the cost; see BenchmarkAppendVsRescan.
func (m *Model) ExtendPlanner(p *Planner) (*Planner, error) {
	if p.eng.CreditModel() != m.credit {
		return nil, fmt.Errorf("credist: planner was scanned with different credit parameters than this model")
	}
	if pl, ml := p.eng.Lambda(), m.opts.Lambda; pl != ml {
		return nil, fmt.Errorf("credist: planner was scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, gn := p.eng.NumNodes(), m.ds.Graph.NumNodes(); pn > gn {
		return nil, fmt.Errorf("credist: planner universe (%d users) exceeds the model's graph (%d nodes)", pn, gn)
	}
	np := p.Clone()
	if err := np.eng.AppendActions(m.ds.Graph, m.ds.Log, ActionID(p.eng.NumActions())); err != nil {
		return nil, err
	}
	return np, nil
}

// SelectSeeds picks k seeds with the paper's algorithm (Scan + greedy with
// CELF, the first-iteration gain pass fanned over the available cores) and
// returns them with their marginal gains; summing the gains gives the
// predicted spread of the whole set. Results are bit-identical regardless
// of worker count.
func (m *Model) SelectSeeds(k int) ([]NodeID, []float64) {
	res := m.selection(k)
	return res.Seeds, res.Gains
}

// Selection runs seed selection and returns the full trace (seeds, gains,
// per-seed timing, and the number of marginal-gain evaluations).
func (m *Model) Selection(k int) celf.Result { return m.selection(k) }

func (m *Model) selection(k int) celf.Result {
	return m.NewPlanner().Select(k)
}

// SeedPrefix is a computed CELF seed-selection prefix: seeds in selection
// order, their marginal gains (cumulative sums are the per-prefix
// spreads), and the cumulative gain-evaluation count when each seed was
// committed. A prefix attached to a model is persisted by Save and
// restored by LoadModel, so a restarted process serves seed queries up to
// the stored length without running selection at all; any smaller k is a
// slice of the arrays. Like NodeID and celf.Result, it is an alias of
// the one shared representation, so no conversions happen at package
// boundaries.
type SeedPrefix = core.SeedPrefix

// SeedPrefix returns the prefix attached to the model (by RecordSeedPrefix
// or a snapshot load), or nil. Callers must not mutate it.
func (m *Model) SeedPrefix() *SeedPrefix { return m.prefix }

// RecordSeedPrefix attaches a selection trace (from Selection, or a
// GrowableSelection's Grow) to the model so Save persists it. The trace
// must come from this model — recording a foreign selection would persist
// seeds the restored model never chose.
func (m *Model) RecordSeedPrefix(res celf.Result) {
	m.prefix = &SeedPrefix{
		Seeds:     append([]NodeID(nil), res.Seeds...),
		Gains:     append([]float64(nil), res.Gains...),
		LookupsAt: append([]int64(nil), res.LookupsAt...),
	}
}

// GrowableSelection is a prefix-incremental CELF run over its own engine
// clones: Grow(k) extends the committed selection to k seeds, keeping the
// lazy-forward heap across calls, so after Grow(50) any k <= 50 is
// answered from the recorded arrays and Grow(60) pays only the marginal
// work. Not safe for concurrent use; the serving layer serializes Grow
// and publishes immutable copies for readers.
type GrowableSelection struct {
	sel *celf.Selection
}

// Grow extends the selection to at most k seeds and returns the full
// accumulated trace (slicing it to any length <= Len yields that prefix's
// selection). Growing to a k at or below the current length does no work.
func (s *GrowableSelection) Grow(k int) celf.Result { return s.sel.Grow(k) }

// Len returns the number of committed seeds.
func (s *GrowableSelection) Len() int { return s.sel.Len() }

// Exhausted reports whether the candidate pool ran dry: no further Grow
// can add seeds.
func (s *GrowableSelection) Exhausted() bool { return s.sel.Exhausted() }

// Planner is the stateful side of the model: the scanned UC credit
// structure of Algorithm 2 plus the committed seed set. Gain is read-only
// (and safe to call from many goroutines at once); Add and Select mutate.
// A Planner is built by one log scan and duplicated with Clone in
// milliseconds, which is how a serving layer keeps one immutable planner
// per model snapshot and hands independent copies to concurrent
// seed-selection requests.
type Planner struct {
	eng *core.Engine
}

// NewPlanner returns a planner with an empty seed set over the model's
// scanned UC structure (Algorithm 2). The scan happens at most once per
// model — on the first call, or never for a model restored by LoadModel
// from a binary snapshot — and every planner is an independent clone
// sharing the frozen scan products copy-on-write, so repeated calls cost
// microseconds, not a log rescan. Results are bit-identical to a freshly
// scanned engine.
func (m *Model) NewPlanner() *Planner {
	return &Planner{eng: m.base().Clone()}
}

// Clone returns an independent deep copy: Add and Select on the clone never
// disturb the receiver, and the clone's results are bit-identical to those
// of a freshly scanned planner driven through the same calls.
func (p *Planner) Clone() *Planner { return &Planner{eng: p.eng.Clone()} }

// Gain returns the marginal gain sigma_cd(S+x) - sigma_cd(S) of candidate x
// against the committed seed set (Theorem 3). Read-only.
func (p *Planner) Gain(x NodeID) float64 { return p.eng.Gain(x) }

// Add commits x to the seed set, updating the credit structure incrementally
// (Algorithm 5).
func (p *Planner) Add(x NodeID) { p.eng.Add(x) }

// Seeds returns the committed seed set in selection order.
func (p *Planner) Seeds() []NodeID { return p.eng.Seeds() }

// Select greedily extends the committed seed set by up to k seeds with
// CELF (Algorithm 3) via the shared selection engine — the
// first-iteration gain pass and stale-bound refreshes fan over the
// engine's configured workers, with bit-identical seeds and gains at any
// worker count — and returns the selection trace. It mutates the planner;
// use Clone first to keep the receiver reusable.
func (p *Planner) Select(k int) celf.Result {
	return celf.Run(p.eng, k, celf.Options{Workers: p.eng.Workers()})
}

// Entries returns the number of live UC credit entries, the paper's memory
// statistic (Figure 8, Table 4).
func (p *Planner) Entries() int64 { return p.eng.Entries() }

// ResidentBytes reports the UC structure's total footprint: HeapBytes
// plus MappedBytes.
func (p *Planner) ResidentBytes() int64 { return p.eng.ResidentBytes() }

// HeapBytes reports the Go-heap slice footprint of the UC structure;
// shards still served from a mapped snapshot contribute nothing.
func (p *Planner) HeapBytes() int64 { return p.eng.HeapBytes() }

// MappedBytes reports the file-backed footprint: bytes of a mapped
// snapshot's base section this planner's shards still alias (zero for
// heap-loaded models, shrinking as writes promote shards to heap).
func (p *Planner) MappedBytes() int64 { return p.eng.MappedBytes() }

// RowStoreBackend reports how the planner's shards are served: "mmap"
// while any shard still aliases a mapped snapshot, "heap" otherwise.
func (p *Planner) RowStoreBackend() string { return p.eng.RowStoreBackend() }

// NumActions returns how many actions the planner has scanned.
func (p *Planner) NumActions() int { return p.eng.NumActions() }

// DeltaActions returns how many appended actions sit outside the frozen
// base (zero for a fresh or compacted planner).
func (p *Planner) DeltaActions() int { return p.eng.DeltaActions() }

// DeltaEntries returns the UC entries the appended actions contributed.
func (p *Planner) DeltaEntries() int64 { return p.eng.DeltaEntries() }

// Compact folds appended delta shards into the frozen base and releases
// every shard to shared status, so subsequent Clones copy nothing (seed
// selection then works copy-on-write). Must not run concurrently with
// other calls on the same planner; results are unchanged.
func (p *Planner) Compact() { p.eng.Compact() }

// Freeze releases every shard to shared status without folding the delta:
// Clones copy nothing, later mutations pay copy-on-write, and the delta
// accounting survives for stats. The serving layer freezes a snapshot's
// base planner before publishing it. Must not run concurrently with other
// calls on the same planner.
func (p *Planner) Freeze() { p.eng.Freeze() }

// Influenceability returns the learned infl(u) when the time-aware rule is
// in use, or 1 under the simple rule (which does not model it).
func (m *Model) Influenceability(u NodeID) float64 {
	if ta, ok := m.credit.(*core.TimeAwareCredit); ok {
		return ta.Influenceability(u)
	}
	return 1
}

// PairCredit returns kappa_{v,u}, the average credit v earns for
// influencing u across the log (Eq. 6) — a learned, data-based analogue of
// an edge influence probability.
func (m *Model) PairCredit(v, u NodeID) float64 { return m.eval().PairCredit(v, u) }

// Initiators returns, for each action of a dataset, the users who
// performed it before any of their neighbors — the paper's notion of a
// propagation's seed set (used to build test cases).
func Initiators(ds *Dataset, a ActionID) []NodeID {
	p := actionlog.BuildPropagation(ds.Log, ds.Graph, a)
	return p.Initiators()
}

// HighDegreeSeeds returns the k highest out-degree users, the High Degree
// baseline of the paper's "Spread Achieved" experiment.
func HighDegreeSeeds(ds *Dataset, k int) []NodeID {
	return graph.HighDegree(ds.Graph, k)
}

// PageRankSeeds returns the k top users by PageRank on the reversed graph,
// the paper's PageRank baseline.
func PageRankSeeds(ds *Dataset, k int) []NodeID {
	return graph.PageRankSeeds(ds.Graph, k, graph.PageRankOptions{})
}

// SaveParams writes the model's learned parameters (time-aware credit
// only; the simple rule has none) so a model fitted once can be restored
// with LoadModel without re-learning. Like every file the package writes,
// it goes to a temp file renamed into place, so a crash mid-write leaves
// the previous file intact.
func (m *Model) SaveParams(path string) error {
	ta, ok := m.credit.(*core.TimeAwareCredit)
	if !ok {
		return fmt.Errorf("credist: simple-credit models have no parameters to save")
	}
	if err := writeFileAtomic(path, func(w io.Writer) error { return core.WriteTimeAware(w, ta) }); err != nil {
		return fmt.Errorf("credist: write params file %s: %w", path, err)
	}
	return nil
}

// Save writes the model as a durable binary snapshot: learned parameters
// plus the fully scanned UC credit structure, the dataset lineage
// (name, universe, action count, graph/log content hashes), and the
// model's attached seed prefix if one was recorded or restored. A process
// restarted with LoadModel against the same (or a grown) dataset skips
// both learning and the log scan — cold start becomes a file read plus an
// append of only the unscanned tail. Saving forces the model's one-time
// scan if it has not happened yet. The file is written to a temp file and
// renamed into place, so a crash mid-write leaves the previous file
// intact, and a model memory-mapped from the same path (LoadModelMapped)
// keeps reading the file it opened.
func (m *Model) Save(path string) error {
	return m.saveEngine(path, m.base(), core.SnapshotParts{Prefix: m.prefix})
}

// saveEngine writes eng — the model's base, or an engine of a coordinator
// serving the model — with the given parts to path atomically, stamped
// with the model's lineage. A whole-model file also carries the RR sketch
// and provenance index whenever the model's tiers hold one: both are
// derived over exactly the model's log, the log the lineage describes (a
// file without them stays version 3, byte-identical to older releases).
func (m *Model) saveEngine(path string, eng *core.Engine, parts core.SnapshotParts) error {
	parts.Lineage = core.DatasetLineage(m.ds.Name, m.ds.Graph, m.ds.Log)
	if parts.Slice == nil {
		parts.Sketch, parts.Prov = m.approxSketch(), m.provForSave()
	}
	if err := writeFileAtomic(path, func(w io.Writer) error { return eng.WriteSnapshot(w, parts) }); err != nil {
		return fmt.Errorf("credist: write snapshot %s: %w", path, err)
	}
	return nil
}

// checkLineage rejects a scanned engine that does not belong to this
// model's state: other credit parameters or truncation threshold, or a
// scan of a different number of actions than the model's log holds.
func (m *Model) checkLineage(eng *core.Engine) error {
	if eng.CreditModel() != m.credit {
		return fmt.Errorf("credist: planner was scanned with different credit parameters than this model")
	}
	if pl, ml := eng.Lambda(), m.opts.Lambda; pl != ml {
		return fmt.Errorf("credist: planner was scanned with lambda %g, model uses %g", pl, ml)
	}
	if pn, ln := eng.NumActions(), m.ds.Log.NumActions(); pn != ln {
		return fmt.Errorf("credist: planner covers %d actions, model's log holds %d", pn, ln)
	}
	return nil
}

// IsModelSnapshot reports whether data (at least the first 8 bytes of a
// file) begins with the binary model-snapshot magic — the format written
// by Model.Save and `credist learn -o`, as opposed to the SaveParams text
// format.
func IsModelSnapshot(data []byte) bool { return core.IsSnapshotHeader(data) }

// LoadModel restores a model from a file written by Save (binary
// snapshot) or SaveParams (text parameters), sniffing the format from the
// file header and binding the result to the given dataset.
//
// For a binary snapshot the dataset is lineage-checked: the graph must
// hash-match the one the snapshot was built against, and the log must
// contain the snapshot's scanned prefix verbatim. The log may be longer —
// the restored engine appends only the unscanned tail (bit-identical to a
// from-scratch rescan of the combined log), which is what makes restarting
// an ingesting service a matter of milliseconds instead of a full rescan.
// The snapshot's stored options are authoritative: pass the same options
// it was saved with, or the zero Options to adopt them; anything else is
// a lineage error.
//
// For text parameters (time-aware only) the behavior is unchanged: the
// dataset must share the user universe the parameters were learned on,
// and opts is taken as given.
func LoadModel(ds *Dataset, path string, opts Options) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("credist: open model file: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if header, err := br.Peek(8); err == nil && core.IsSnapshotHeader(header) {
		eng, parts, err := core.ReadSnapshot(br)
		if err != nil {
			return nil, err
		}
		return bindSnapshots(ds, opts, []*core.Engine{eng}, []core.SnapshotParts{parts}, nil)
	}
	credit, err := core.ReadTimeAware(br)
	if err != nil {
		return nil, err
	}
	// Same guard the snapshot path applies: parameters must cover every
	// graph node, or the first Gamma evaluation for an uncovered user
	// would panic instead of erroring here.
	if credit.UniverseSize() < ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: parameters cover %d users, graph has %d nodes", credit.UniverseSize(), ds.Graph.NumNodes())
	}
	return newModel(ds, opts, credit), nil
}

// LoadModelMapped restores a model from a version-3 binary snapshot with
// the frozen UC base served directly from the memory-mapped file: no cell
// is parsed, no shard allocated, and the OS pages cold shards in and out
// on demand, so the model can exceed RAM and opening is near-instant
// regardless of model size. Everything else matches LoadModel's snapshot
// path — lineage check, stored-options authority, tail append for a grown
// log (the tail is scanned onto the heap; the base stays mapped) — and
// every query is bit-identical to the heap-loaded model. Text parameter
// files and pre-v3 snapshots are rejected; re-save with Save to upgrade.
//
// The caller owns the mapping's lifetime: Close the model only after all
// planners derived from it are gone.
func LoadModelMapped(ds *Dataset, path string, opts Options) (*Model, error) {
	eng, parts, ms, err := core.OpenSnapshotMapped(path)
	if err != nil {
		return nil, err
	}
	m, err := bindSnapshots(ds, opts, []*core.Engine{eng}, []core.SnapshotParts{parts}, nil)
	if err != nil {
		ms.Close()
		return nil, err
	}
	m.mapped = ms
	return m, nil
}

// bindSnapshots finishes every snapshot load: one whole-model file
// (LoadModel, LoadModelMapped; paths nil) or a set of slices (LoadPartitions;
// paths[i] names the file engines[i] and parts[i] came from, and labels
// its errors). Every file is lineage-checked against the dataset; the
// slices must agree on the scanned action count, options, and seed
// prefix; the stored options are resolved against opts; and a log that
// has grown past the files' scan is appended to every engine, dropping
// the stored seed prefix, RR sketch, and provenance index, which no longer
// describe the model. The engines come back frozen. A whole-model load's
// engine becomes the model's base, restored sections included; a
// partitioned model keeps only the prefix and builds no base of its own.
func bindSnapshots(ds *Dataset, opts Options, engines []*core.Engine, parts []core.SnapshotParts, paths []string) (*Model, error) {
	label := func(i int, err error) error {
		if paths == nil {
			return err
		}
		return fmt.Errorf("credist: partition %d (%s): %w", i, paths[i], err)
	}
	if rows := parts[0].Slice; paths == nil && rows != nil {
		return nil, fmt.Errorf("credist: snapshot is a partition slice holding rows [%d,%d); open slices with LoadPartitions", rows.Lo, rows.Hi)
	}
	scanned := parts[0].Lineage.NumActions
	for i, p := range parts {
		if err := p.Lineage.Check(ds.Graph, ds.Log); err != nil {
			return nil, label(i, err)
		}
		if p.Lineage.NumActions != scanned {
			return nil, label(i, fmt.Errorf("slice covers %d actions, slice 0 (%s) covers %d", p.Lineage.NumActions, paths[0], scanned))
		}
	}
	credit := engines[0].CreditModel()
	// The graph hash matched, so a snapshot learned on this graph covers
	// every node; a crafted file that passed its CRC but shrank the
	// parameter table must still be refused before Gamma can index past it.
	if ta, ok := credit.(*core.TimeAwareCredit); ok && ta.UniverseSize() < ds.Graph.NumNodes() {
		return nil, fmt.Errorf("credist: snapshot parameters cover %d users, graph has %d nodes", ta.UniverseSize(), ds.Graph.NumNodes())
	}
	_, simple := credit.(core.SimpleCredit)
	stored := Options{Lambda: engines[0].Lambda(), SimpleCredit: simple}
	if opts != (Options{}) && opts != stored {
		return nil, fmt.Errorf("credist: snapshot was saved with options %+v, load requested %+v (pass the zero Options to adopt the stored ones)", stored, opts)
	}
	prefix := parts[0].Prefix
	for i, eng := range engines[1:] {
		_, si := eng.CreditModel().(core.SimpleCredit)
		if eng.Lambda() != stored.Lambda || si != simple {
			return nil, fmt.Errorf("credist: partition %d (%s) was saved with options {Lambda:%g SimpleCredit:%t}, slice 0 with %+v",
				i+1, paths[i+1], eng.Lambda(), si, stored)
		}
		// Every slice of one save carries the same prefix; a disagreement
		// means the files come from different checkpoints and must not be
		// mixed.
		if !samePrefix(prefix, parts[i+1].Prefix) {
			return nil, fmt.Errorf("credist: partition %d (%s) stores a different seed prefix than slice 0 (%s); the slices come from different checkpoints",
				i+1, paths[i+1], paths[0])
		}
	}
	sketch, prov := parts[0].Sketch, parts[0].Prov
	if ds.Log.NumActions() > scanned {
		for i, eng := range engines {
			if err := eng.AppendActions(ds.Graph, ds.Log, ActionID(scanned)); err != nil {
				return nil, label(i, err)
			}
		}
		// The stored seed prefix was selected over the files' log prefix;
		// appended actions change every marginal gain, so it no longer
		// describes this model. The RR sketch falls for the same reason
		// (its walks sampled the old log's DAGs), and the provenance index
		// too: the tail adds credit cells it never indexed.
		prefix, sketch, prov = nil, nil, nil
	}
	// Freeze rather than Compact: clones share everything either way, and
	// keeping the delta accounting lets callers (and /stats) see how much
	// of the engine came from the post-snapshot tail.
	for _, eng := range engines {
		eng.Freeze()
	}
	m := newModel(ds, stored, credit)
	m.prefix = prefix
	if paths == nil {
		eng := engines[0]
		m.base = func() *core.Engine { return eng }
		m.approx.restored = sketch
		m.prov.restored = prov
	}
	return m, nil
}
