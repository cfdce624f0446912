package core

import (
	"cmp"
	"slices"
)

// This file holds the sorted-sparse shard behind Engine: the ucAction
// structure, its binary-search helpers, the scan-time cell insert, the
// merge-pass seed commit, and the deep copy Compact uses. Keeping every
// sorted search in one place means the scan, the base/delta merge path
// and the commit share one implementation instead of growing private
// copies.

// ucEntry is one cell of an influencer's credit row.
type ucEntry struct {
	u int32   // influenced user
	c float64 // Gamma^{V-S}_{v,u}(a)
}

// ucAction holds one action's credit matrix as sorted sparse rows: rowKey
// lists the influencers in ascending order and rows[i] holds rowKey[i]'s
// (influenced, credit) cells sorted by influenced id, so iteration order
// is fixed and every float summation over the structure deterministic.
// colKey/cols mirror the structure column-wise (influenced -> sorted
// influencer ids) so a seed commit can find a column without scanning
// every row.
//
// Once a shard is installed in an engine its rows are immutable: no cell
// is ever written in place. A commit builds replacement rows and swaps
// them into the outer rowKey/rows slices, which are the only part of a
// shard an engine ever writes (and only when it owns them). The column
// mirror is exact when the scan or a load builds it and thereafter a
// read-only superset that only commits read and never write: it may still
// list an influencer whose cell a commit pruned, or whose row it removed.
// Rows and columns can therefore be shared freely between sibling
// engines; copy-on-write copies only the outer slices.
type ucAction struct {
	rowKey []int32
	rows   [][]ucEntry
	colKey []int32
	cols   [][]int32
	// view holds the cells of the mapped shard this one was promoted from:
	// rows inside it alias the read-only mapping and are counted as
	// mapped bytes, not heap (rowstore.go). Nil for shards built on the
	// heap.
	view []ucEntry
}

// searchRow locates influenced id u in a sorted row.
func searchRow(row []ucEntry, u int32) (int, bool) {
	return slices.BinarySearchFunc(row, u, func(e ucEntry, u int32) int {
		return cmp.Compare(e.u, u)
	})
}

// cloneShard returns an exact deep copy of a shard, every row and column
// in fresh exact-size backing. Compact uses it to shed growth slack: the
// scan's slices.Insert slack and row blocks kept alive by a few surviving
// rows after commits. The copy is all heap, so it carries no view.
func cloneShard(src *ucAction) *ucAction {
	dst := &ucAction{
		rowKey: slices.Clone(src.rowKey),
		colKey: slices.Clone(src.colKey),
		rows:   make([][]ucEntry, len(src.rows)),
		cols:   make([][]int32, len(src.cols)),
	}
	for i, row := range src.rows {
		dst.rows[i] = slices.Clone(row)
	}
	for i, col := range src.cols {
		dst.cols[i] = slices.Clone(col)
	}
	return dst
}

// row returns v's credit cells, sorted by influenced id, or nil.
func (ua *ucAction) row(v int32) []ucEntry {
	if i, ok := slices.BinarySearch(ua.rowKey, v); ok {
		return ua.rows[i]
	}
	return nil
}

// col returns the sorted influencer ids with credit over u, or nil.
func (ua *ucAction) col(u int32) []int32 {
	if i, ok := slices.BinarySearch(ua.colKey, u); ok {
		return ua.cols[i]
	}
	return nil
}

// get returns the credit of entry (v,u) and whether it exists.
func (ua *ucAction) get(v, u int32) (float64, bool) {
	row := ua.row(v)
	if i, ok := searchRow(row, u); ok {
		return row[i].c, true
	}
	return 0, false
}

// cell returns a pointer to the credit of entry (v,u), creating the entry
// (and mirroring it in the column index) when absent; created reports
// whether it did. The pointer is valid until the next structural change.
// Only the scan calls it, on a shard not yet installed in any engine.
func (ua *ucAction) cell(v, u int32) (cr *float64, created bool) {
	ri, ok := slices.BinarySearch(ua.rowKey, v)
	if !ok {
		ua.rowKey = slices.Insert(ua.rowKey, ri, v)
		ua.rows = slices.Insert(ua.rows, ri, []ucEntry(nil))
	}
	ei, found := searchRow(ua.rows[ri], u)
	if !found {
		ua.rows[ri] = slices.Insert(ua.rows[ri], ei, ucEntry{u: u})
		ua.colInsert(u, v)
	}
	return &ua.rows[ri][ei].c, !found
}

// colInsert mirrors a new entry (v,u) into the column index.
func (ua *ucAction) colInsert(u, v int32) {
	ci, ok := slices.BinarySearch(ua.colKey, u)
	if !ok {
		ua.colKey = slices.Insert(ua.colKey, ci, u)
		ua.cols = slices.Insert(ua.cols, ci, []int32(nil))
	}
	if vi, found := slices.BinarySearch(ua.cols[ci], v); !found {
		ua.cols[ci] = slices.Insert(ua.cols[ci], vi, v)
	}
}

// commitSeed applies Lemma 2 of Algorithm 5 for the committed seed x to
// this shard and returns how many cells it removed. xrow holds x's cells
// (u, Gamma^{V-S}_{x,u}(a)) sorted by u, read out by the engine owning
// x's row. Every influencer v holding a (v,x) cell gets one new row, built
// by a single sorted merge of v's row with xrow (mergeRow). x's own row
// (present only on its owner) goes too, as do rows the merge emptied. A
// column entry v whose (v,x) cell or row is already gone is stale and
// skipped. Only the outer rowKey/rows slices are written, so the caller
// must own them; installed rows and the column mirror are never touched.
//
// Rebuilt rows shorter than ownRowCells share one block per call, which
// keeps allocations per commit low. Longer rows get an allocation of
// their own: a hub's long rows are rebuilt by commit after commit, and a
// shared block would keep every superseded copy alive for as long as any
// one of its rows survived.
func (ua *ucAction) commitSeed(x int32, xrow []ucEntry) int64 {
	col := ua.col(x)
	size := 0
	for _, v := range col {
		if n := len(ua.row(v)); n < ownRowCells {
			size += n
		}
	}
	block := make([]ucEntry, 0, size)
	var removed int64
	emptied := false
	lo := 0 // col ascends like rowKey, so each search starts past the last
	for _, v := range col {
		ri, ok := slices.BinarySearch(ua.rowKey[lo:], v)
		ri += lo
		lo = ri
		if !ok {
			continue
		}
		row := ua.rows[ri]
		xi, ok := searchRow(row, x)
		if !ok {
			continue
		}
		var merged []ucEntry
		var n int64
		if len(row) >= ownRowCells {
			// The (v,x) cell always goes, so len(row)-1 cells suffice.
			merged, n = mergeRow(make([]ucEntry, 0, len(row)-1), row, xrow, x, row[xi].c)
		} else {
			start := len(block)
			block, n = mergeRow(block, row, xrow, x, row[xi].c)
			merged = block[start:len(block):len(block)]
		}
		removed += n
		ua.rows[ri] = merged
		emptied = emptied || len(merged) == 0
	}
	if ri, ok := slices.BinarySearch(ua.rowKey, x); ok {
		removed += int64(len(ua.rows[ri]))
		ua.rows[ri] = nil
		emptied = true
	}
	if emptied {
		w := 0
		for ri, row := range ua.rows {
			if len(row) > 0 {
				ua.rowKey[w], ua.rows[w] = ua.rowKey[ri], row
				w++
			}
		}
		clear(ua.rows[w:])
		ua.rowKey, ua.rows = ua.rowKey[:w], ua.rows[:w]
	}
	return removed
}

// ownRowCells is the rebuilt-row length from which commitSeed gives a row
// its own allocation instead of a slot in the per-call block. Measured on
// a clone of the flixster-large base after a 5-seed selection: one block
// per call kept 18.7 MB live in 8.9k allocations, this split 14.1 MB in
// 13.6k, and one allocation per row 10.0 MB in 22.8k (the deep-copying
// commit it replaced: 28.5 MB in 231k).
const ownRowCells = 64

// mergeRow appends to dst v's row with the commit of x applied, given
// cvx = Gamma^{V-S}_{v,x}(a) and x's sorted cells xrow, and returns it
// with the number of cells dropped. One sorted merge of the two rows
//   - subtracts cvx*Gamma_{x,u} from each (v,u) cell x also reaches (a
//     (v,u) cell truncation dropped has nothing to subtract),
//   - prunes the cells left at or below 1e-15, and
//   - drops the (v,x) cell itself.
//
// Every (v,u) cell is updated exactly once with the same float operation
// as a cell-by-cell edit, so the result does not depend on walk order.
func mergeRow(dst, row, xrow []ucEntry, x int32, cvx float64) ([]ucEntry, int64) {
	var removed int64
	j := 0
	for _, en := range row {
		if en.u == x {
			removed++
			continue
		}
		for j < len(xrow) && xrow[j].u < en.u {
			j++
		}
		if j < len(xrow) && xrow[j].u == en.u {
			// Lemma 2: v's credit over u loses the paths through x.
			value := en.c - cvx*xrow[j].c
			if value <= 1e-15 {
				removed++
				continue
			}
			en.c = value
		}
		dst = append(dst, en)
	}
	return dst, removed
}
