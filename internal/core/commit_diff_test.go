package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// This file is the differential oracle for the merge-pass seed commit
// (ucAction.commitSeed): a private deep copy of the UC structure driven by
// the per-cell Lemma 2 kernel the merge pass replaced — a binary-search
// find per (v, u) pair, in-place cell writes, and a slices.Delete of every
// pruned cell from its row and its column. Every engine flavour must match
// it cell for cell and bit for bit after every commit.

// refShard is one action's credit matrix with an exact column mirror,
// edited in place.
type refShard struct {
	rowKey []int32
	rows   [][]ucEntry
	colKey []int32
	cols   [][]int32
}

// newRefShard deep-copies a shard and builds its exact column mirror.
func newRefShard(st rowStore) *refShard {
	ua := &ucAction{
		rowKey: make([]int32, st.numRows()),
		rows:   make([][]ucEntry, st.numRows()),
	}
	for ri := range ua.rows {
		ua.rowKey[ri] = st.rowKeyAt(ri)
		ua.rows[ri] = slices.Clone(st.rowAt(ri))
	}
	buildColumnsSorted(ua)
	return &refShard{rowKey: ua.rowKey, rows: ua.rows, colKey: ua.colKey, cols: ua.cols}
}

func (rs *refShard) clone() *refShard {
	c := &refShard{
		rowKey: slices.Clone(rs.rowKey),
		rows:   make([][]ucEntry, len(rs.rows)),
		colKey: slices.Clone(rs.colKey),
		cols:   make([][]int32, len(rs.cols)),
	}
	for i, row := range rs.rows {
		c.rows[i] = slices.Clone(row)
	}
	for i, col := range rs.cols {
		c.cols[i] = slices.Clone(col)
	}
	return c
}

func (rs *refShard) row(v int32) []ucEntry {
	if i, ok := slices.BinarySearch(rs.rowKey, v); ok {
		return rs.rows[i]
	}
	return nil
}

func (rs *refShard) col(u int32) []int32 {
	if i, ok := slices.BinarySearch(rs.colKey, u); ok {
		return rs.cols[i]
	}
	return nil
}

func (rs *refShard) get(v, u int32) (float64, bool) {
	row := rs.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

func (rs *refShard) find(v, u int32) (ri, ei int, ok bool) {
	ri, ok = slices.BinarySearch(rs.rowKey, v)
	if !ok {
		return 0, 0, false
	}
	ei, ok = searchRow(rs.rows[ri], u)
	return ri, ei, ok
}

func (rs *refShard) colRemove(u, v int32) {
	ci, ok := slices.BinarySearch(rs.colKey, u)
	if !ok {
		return
	}
	vi, found := slices.BinarySearch(rs.cols[ci], v)
	if !found {
		return
	}
	rs.cols[ci] = slices.Delete(rs.cols[ci], vi, vi+1)
	if len(rs.cols[ci]) == 0 {
		rs.colKey = slices.Delete(rs.colKey, ci, ci+1)
		rs.cols = slices.Delete(rs.cols, ci, ci+1)
	}
}

func (rs *refShard) rowRemoveEntry(v, u int32) bool {
	ri, ei, ok := rs.find(v, u)
	if !ok {
		return false
	}
	rs.rows[ri] = slices.Delete(rs.rows[ri], ei, ei+1)
	if len(rs.rows[ri]) == 0 {
		rs.rowKey = slices.Delete(rs.rowKey, ri, ri+1)
		rs.rows = slices.Delete(rs.rows, ri, ri+1)
	}
	return true
}

func (rs *refShard) remove(v, u int32) bool {
	if !rs.rowRemoveEntry(v, u) {
		return false
	}
	rs.colRemove(u, v)
	return true
}

func (rs *refShard) removeRow(v int32) int {
	ri, ok := slices.BinarySearch(rs.rowKey, v)
	if !ok {
		return 0
	}
	row := rs.rows[ri]
	rs.rowKey = slices.Delete(rs.rowKey, ri, ri+1)
	rs.rows = slices.Delete(rs.rows, ri, ri+1)
	for _, en := range row {
		rs.colRemove(en.u, v)
	}
	return len(row)
}

func (rs *refShard) removeCol(u int32) int {
	ci, ok := slices.BinarySearch(rs.colKey, u)
	if !ok {
		return 0
	}
	col := rs.cols[ci]
	rs.colKey = slices.Delete(rs.colKey, ci, ci+1)
	rs.cols = slices.Delete(rs.cols, ci, ci+1)
	n := 0
	for _, v := range col {
		if rs.rowRemoveEntry(v, u) {
			n++
		}
	}
	return n
}

// refEngine is the oracle: the per-action UC shards, SC, and the entry
// count of an unpartitioned engine, committed by the per-cell kernel.
type refEngine struct {
	shards    []*refShard
	sc        []map[int32]float64
	actionsOf [][]int32
	entries   int64
}

// newRefEngine deep-copies a seedless engine's state.
func newRefEngine(e *Engine) *refEngine {
	r := &refEngine{
		shards:    make([]*refShard, len(e.uc)),
		sc:        make([]map[int32]float64, len(e.uc)),
		actionsOf: e.actionsOf,
		entries:   e.entries,
	}
	for a, st := range e.uc {
		r.shards[a] = newRefShard(st)
	}
	return r
}

func (r *refEngine) clone() *refEngine {
	c := &refEngine{
		shards:    make([]*refShard, len(r.shards)),
		sc:        make([]map[int32]float64, len(r.sc)),
		actionsOf: r.actionsOf,
		entries:   r.entries,
	}
	for a, rs := range r.shards {
		c.shards[a] = rs.clone()
	}
	for a, m := range r.sc {
		if m != nil {
			c.sc[a] = maps.Clone(m)
		}
	}
	return c
}

// add commits x with the per-cell kernel (Algorithm 5, Lemmas 2 and 3).
func (r *refEngine) add(x graph.NodeID) {
	xi := int32(x)
	for _, a := range r.actionsOf[x] {
		ua := r.shards[a]
		row := slices.Clone(ua.row(xi))
		col := ua.col(xi)
		scx := 0.0
		if r.sc[a] != nil {
			scx = r.sc[a][xi]
		}
		cvxs := make([]float64, len(col))
		for j, v := range col {
			cvxs[j], _ = ua.get(v, xi)
		}
		for _, en := range row {
			u, cxu := en.u, en.c
			for j, v := range col {
				cvx := cvxs[j]
				ri, ei, ok := ua.find(v, u)
				if !ok {
					continue
				}
				value := ua.rows[ri][ei].c - cvx*cxu
				if value > 1e-15 {
					ua.rows[ri][ei].c = value
				} else if ua.remove(v, u) {
					r.entries--
				}
			}
			if r.sc[a] == nil {
				r.sc[a] = make(map[int32]float64)
			}
			r.sc[a][u] += cxu * (1 - scx)
		}
		r.entries -= int64(ua.removeRow(xi))
		r.entries -= int64(ua.removeCol(xi))
	}
}

// requireMatchesRef asserts that engines — one full engine, or the row
// partitions of one in ascending range order — hold exactly the oracle's
// cells with the oracle's bits, and the oracle's SC and entry count.
func requireMatchesRef(t *testing.T, label string, r *refEngine, engines ...*Engine) {
	t.Helper()
	var entries int64
	for _, e := range engines {
		entries += e.Entries()
	}
	if entries != r.entries {
		t.Fatalf("%s: Entries %d, oracle %d", label, entries, r.entries)
	}
	for a, rs := range r.shards {
		// Structure: the engines' rows, concatenated, are the oracle's.
		var keys []int32
		var rows [][]ucEntry
		for _, e := range engines {
			st := e.uc[a]
			for ri := 0; ri < st.numRows(); ri++ {
				keys = append(keys, st.rowKeyAt(ri))
				rows = append(rows, st.rowAt(ri))
			}
		}
		if !slices.Equal(keys, rs.rowKey) {
			t.Fatalf("%s: action %d row keys %v, oracle %v", label, a, keys, rs.rowKey)
		}
		for ri, row := range rows {
			want := rs.rows[ri]
			if len(row) != len(want) {
				t.Fatalf("%s: action %d row %d has %d cells, oracle %d", label, a, keys[ri], len(row), len(want))
			}
			for i := range row {
				if row[i].u != want[i].u || math.Float64bits(row[i].c) != math.Float64bits(want[i].c) {
					t.Fatalf("%s: action %d cell (%d,%d)=%b, oracle (%d,%d)=%b",
						label, a, keys[ri], row[i].u, row[i].c, keys[ri], want[i].u, want[i].c)
				}
			}
		}
		// The public surface: Credit of every cell on its row owner, and
		// the SC replica on every engine.
		for ri, v := range rs.rowKey {
			for _, en := range rs.rows[ri] {
				for _, e := range engines {
					if !e.ownsRow(graph.NodeID(v)) {
						continue
					}
					if got := e.Credit(actionlog.ActionID(a), graph.NodeID(v), graph.NodeID(en.u)); math.Float64bits(got) != math.Float64bits(en.c) {
						t.Fatalf("%s: Credit(%d,%d,%d)=%b, oracle %b", label, a, v, en.u, got, en.c)
					}
				}
			}
		}
		for _, e := range engines {
			if len(e.sc[a]) != len(r.sc[a]) {
				t.Fatalf("%s: action %d SC holds %d users, oracle %d", label, a, len(e.sc[a]), len(r.sc[a]))
			}
			for u, want := range r.sc[a] {
				if got := e.SeedCredit(actionlog.ActionID(a), graph.NodeID(u)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: SeedCredit(%d,%d)=%b, oracle %b", label, a, u, got, want)
				}
			}
		}
	}
}

// diffCase is one instance of the differential test.
type diffCase struct {
	name  string
	g     *graph.Graph
	log   *actionlog.Log
	opts  Options
	seeds []graph.NodeID
}

func diffCases(t *testing.T) []diffCase {
	g, log := figure1(t)
	cases := []diffCase{{
		name: "figure1", g: g, log: log,
		seeds: []graph.NodeID{nodeT, nodeZ, nodeW, nodeV, nodeY, nodeU},
	}}
	rng := rand.New(rand.NewPCG(61, 16))
	for trial := 0; trial < 12; trial++ {
		g, log := randomInstance(rng, 12+rng.IntN(14), 4+rng.IntN(8))
		opts := Options{Credit: LearnTimeAware(g, log)}
		if trial%2 == 1 {
			opts.Lambda = 0.05 // truncation leaves (v,u) cells missing
		}
		k := 4 + rng.IntN(4)
		seeds := make([]graph.NodeID, 0, k)
		for _, u := range rng.Perm(g.NumNodes())[:k] {
			seeds = append(seeds, graph.NodeID(u))
		}
		cases = append(cases, diffCase{name: fmt.Sprintf("random-%d", trial), g: g, log: log, opts: opts, seeds: seeds})
	}
	// Wide instances: early adopters of a big action hold rows of at least
	// ownRowCells cells, which commitSeed allocates on their own.
	for trial := 0; trial < 2; trial++ {
		g, log := wideInstance(rng, 140+rng.IntN(40), 3+rng.IntN(3))
		opts := Options{Credit: LearnTimeAware(g, log), Lambda: 0.001 * float64(trial)}
		var seeds []graph.NodeID
		for _, u := range rng.Perm(g.NumNodes())[:8] {
			seeds = append(seeds, graph.NodeID(u))
		}
		cases = append(cases, diffCase{name: fmt.Sprintf("wide-%d", trial), g: g, log: log, opts: opts, seeds: seeds})
	}
	return cases
}

// wideInstance builds an instance whose early adopters influence most of
// each action: every user follows a few lower-numbered users, and users
// adopt roughly in id order (with ties), so credit flows down long chains.
func wideInstance(rng *rand.Rand, nUsers, nActions int) (*graph.Graph, *actionlog.Log) {
	b := graph.NewBuilder(nUsers)
	for u := 1; u < nUsers; u++ {
		for d := 0; d < 2+rng.IntN(4); d++ {
			_ = b.AddEdge(graph.NodeID(rng.IntN(u)), graph.NodeID(u))
		}
	}
	lb := actionlog.NewBuilder(nUsers)
	for a := 0; a < nActions; a++ {
		for u := 0; u < nUsers; u++ {
			if rng.IntN(4) > 0 {
				_ = lb.Add(graph.NodeID(u), actionlog.ActionID(a), float64(u/3+rng.IntN(2)))
			}
		}
	}
	return b.Build(), lb.Build()
}

// TestCommitMatchesPerCellKernel drives every engine flavour through k
// commits and checks each against the per-cell oracle after every one: a
// heap engine that owns its shards, a clone of a frozen base (plus a
// branch cloned from it mid-selection), clones of a frozen base committing
// concurrently, a clone of a mapped version-3 base, and Slice partitions
// 1-4 driven by ExtractSeedRow/CommitSeedRow.
// The instances include rows both shorter and longer than ownRowCells, so
// both of commitSeed's row allocations are covered.
// The frozen and mapped bases must come out of it with every cell
// bit-unchanged.
func TestCommitMatchesPerCellKernel(t *testing.T) {
	longest := 0
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() *Engine { return NewEngine(tc.g, tc.log, tc.opts) }
			ref := newRefEngine(fresh())
			for _, rs := range ref.shards {
				for _, row := range rs.rows {
					longest = max(longest, len(row))
				}
			}

			t.Run("heap", func(t *testing.T) {
				e, r := fresh(), ref.clone()
				for i, x := range tc.seeds {
					e.Add(x)
					r.add(x)
					requireMatchesRef(t, fmt.Sprintf("after seed %d (%d)", i, x), r, e)
				}
			})

			t.Run("frozen-clone", func(t *testing.T) {
				base := fresh()
				base.Freeze()
				c, r := base.Clone(), ref.clone()
				half := len(tc.seeds) / 2
				for i, x := range tc.seeds[:half] {
					c.Add(x)
					r.add(x)
					requireMatchesRef(t, fmt.Sprintf("after seed %d (%d)", i, x), r, c)
				}
				// A branch of an engine that owns promoted shards: both sides
				// commit the remaining seeds in opposite orders.
				branch, rb := c.Clone(), r.clone()
				rest := tc.seeds[half:]
				for i, x := range rest {
					c.Add(x)
					r.add(x)
					requireMatchesRef(t, fmt.Sprintf("trunk after seed %d (%d)", half+i, x), r, c)
					y := rest[len(rest)-1-i]
					branch.Add(y)
					rb.add(y)
					requireMatchesRef(t, fmt.Sprintf("branch after seed %d (%d)", half+i, y), rb, branch)
				}
				requireMatchesRef(t, "frozen base after its clones committed", ref, base)
			})

			t.Run("concurrent-clones", func(t *testing.T) {
				// Clones of one frozen base commit on separate goroutines
				// (each its own rotation of the seeds), sharing every row
				// and column; -race checks that no commit writes them.
				base := fresh()
				base.Freeze()
				const n = 4
				clones := make([]*Engine, n)
				for i := range clones {
					clones[i] = base.Clone()
				}
				rotation := func(i int) []graph.NodeID {
					r := i % len(tc.seeds)
					return append(slices.Clone(tc.seeds[r:]), tc.seeds[:r]...)
				}
				var wg sync.WaitGroup
				for i, c := range clones {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, x := range rotation(i) {
							c.Add(x)
						}
					}()
				}
				wg.Wait()
				for i, c := range clones {
					r := ref.clone()
					for _, x := range rotation(i) {
						r.add(x)
					}
					requireMatchesRef(t, fmt.Sprintf("clone %d", i), r, c)
				}
				requireMatchesRef(t, "frozen base after concurrent clone commits", ref, base)
			})

			t.Run("mapped-clone", func(t *testing.T) {
				path := writeSnapshotFile(t, fresh(), DatasetLineage("diff", tc.g, tc.log), nil)
				mapped, _, _, _ := openMapped(t, path)
				c, r := mapped.Clone(), ref.clone()
				for i, x := range tc.seeds {
					c.Add(x)
					r.add(x)
					requireMatchesRef(t, fmt.Sprintf("after seed %d (%d)", i, x), r, c)
				}
				requireMatchesRef(t, "mapped base after its clone committed", ref, mapped)
			})

			for n := 1; n <= 4; n++ {
				t.Run(fmt.Sprintf("partitions-%d", n), func(t *testing.T) {
					base := fresh()
					base.Freeze()
					numUsers := base.NumNodes()
					parts := make([]*Engine, n)
					for i := range parts {
						p, err := base.Slice(i*numUsers/n, (i+1)*numUsers/n)
						if err != nil {
							t.Fatal(err)
						}
						parts[i] = p
					}
					r := ref.clone()
					for i, x := range tc.seeds {
						var payload any
						for _, p := range parts {
							if p.ownsRow(x) {
								payload = p.ExtractSeedRow(x)
							}
						}
						for _, p := range parts {
							p.CommitSeedRow(x, payload)
						}
						r.add(x)
						requireMatchesRef(t, fmt.Sprintf("after seed %d (%d)", i, x), r, parts...)
					}
					requireMatchesRef(t, "sliced base after its partitions committed", ref, base)
				})
			}
		})
	}
	if longest < ownRowCells {
		t.Fatalf("longest row has %d cells; no instance exercises rows of %d+ cells", longest, ownRowCells)
	}
}
