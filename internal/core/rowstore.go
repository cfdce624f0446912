package core

import (
	"slices"
	"unsafe"
)

// This file defines the pluggable row-store boundary behind the engine's
// frozen base: the read path (Gain, Credit, snapshot serialization) sees
// every shard through the small rowStore interface, so a shard can live
// either as heap ucAction slices or as a window into a memory-mapped
// version-3 snapshot (mapped.go) without the query algorithms knowing.
// Delta shards — anything the engine scans or ingests itself — are always
// heap ucAction values. Installed rows are never written (sparse.go): a
// commit on a shard the engine does not own first promotes it to a heap
// ucAction with private outer slices, sharing the cells — heap or mapped —
// and the column mirror read-only.

// rowStore is the read surface of one action's UC shard. Rows are sorted
// sparse (sparse.go): rowKeyAt(i) ascends with i, and every row's entries
// ascend by influenced id, which keeps float summation order — and
// therefore every Gain/Spread/CELF bit — independent of the backend.
//
// Implementations: *ucAction (heap outer slices whose rows may alias a
// mapping) and *mappedShard (read-only window into a mapped snapshot). The
// column mirror is intentionally not part of the interface: only commits
// read columns, and those run on heap shards obtained through promote.
type rowStore interface {
	// numRows returns how many influencers have a credit row.
	numRows() int
	// rowKeyAt returns the i-th influencer id, ascending in i.
	rowKeyAt(ri int) int32
	// rowAt returns the i-th row's cells, sorted by influenced id. The
	// returned slice is a read-only view into the backend.
	rowAt(ri int) []ucEntry
	// row returns v's credit cells, or nil when v has no row.
	row(v int32) []ucEntry
	// get returns the credit of cell (v,u) and whether it exists.
	get(v, u int32) (float64, bool)
	// entryCount returns the shard's live cell count.
	entryCount() int64
	// heapBytes and mappedBytes split the shard's resident footprint by
	// where the bytes live: Go-heap slices versus file-backed mapped
	// pages. A shard promoted from a mapping counts both.
	heapBytes() int64
	mappedBytes() int64
	// promote returns a heap shard with private outer rowKey/rows slices
	// over the same cells, plus a column mirror. The engine calls it on
	// the first commit to a shard it does not own — a shared heap shard
	// or a mapped one — and on Clone for shards it does own. Cells and
	// columns are shared, never copied: no installed row is ever written.
	promote() *ucAction
	// backendName identifies the backend ("heap" or "mmap") for stats.
	backendName() string
}

// --- ucAction as a rowStore -------------------------------------------------

func (ua *ucAction) numRows() int           { return len(ua.rowKey) }
func (ua *ucAction) rowKeyAt(ri int) int32  { return ua.rowKey[ri] }
func (ua *ucAction) rowAt(ri int) []ucEntry { return ua.rows[ri] }

func (ua *ucAction) entryCount() int64 {
	var n int64
	for _, row := range ua.rows {
		n += int64(len(row))
	}
	return n
}

// heapBytes reports the shard's Go-heap slice footprint: 16 bytes per
// row cell (int32 influenced id + float64 credit, padded) plus 4 bytes per
// column entry, with the key slices and inner slice headers on top. Rows
// still aliasing a mapping are left to mappedBytes.
func (ua *ucAction) heapBytes() int64 {
	bytes := int64(cap(ua.rowKey))*4 + int64(cap(ua.colKey))*4
	for _, row := range ua.rows {
		if !ua.inView(row) {
			bytes += int64(cap(row)) * 16
		}
	}
	for _, col := range ua.cols {
		bytes += int64(cap(col)) * 4
	}
	return bytes + int64(cap(ua.rows)+cap(ua.cols))*24 // inner slice headers
}

// mappedBytes reports the cells of rows that still alias the mapping this
// shard was promoted from.
func (ua *ucAction) mappedBytes() int64 {
	var bytes int64
	for _, row := range ua.rows {
		if ua.inView(row) {
			bytes += int64(len(row)) * 16
		}
	}
	return bytes
}

// inView reports whether row's cells lie inside ua.view, the mapped cells
// of the shard ua was promoted from.
func (ua *ucAction) inView(row []ucEntry) bool {
	if len(ua.view) == 0 || len(row) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(ua.view)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(row)))
	return p >= lo && p < lo+uintptr(len(ua.view))*unsafe.Sizeof(ucEntry{})
}

// promote on a heap shard copies only the outer rowKey/rows slices.
func (ua *ucAction) promote() *ucAction {
	return &ucAction{
		rowKey: slices.Clone(ua.rowKey),
		rows:   slices.Clone(ua.rows),
		colKey: ua.colKey,
		cols:   ua.cols,
		view:   ua.view,
	}
}

// backendName is "mmap" while any row still aliases a mapping.
func (ua *ucAction) backendName() string {
	if ua.mappedBytes() > 0 {
		return "mmap"
	}
	return "heap"
}
