package oblivious

import (
	"sync"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// Record is an input tuple to a truncated transformation: a row plus the
// stable record ID that the contribution-budget bookkeeping tracks.
type Record struct {
	ID  int64
	Row table.Row
}

// MatchFunc is the join condition beyond key equality (for example the
// temporal predicate "returned within 10 days" that defines the paper's Q1
// view, or Transform's "at least one side is new" admissibility check). It
// sees the full records so admissibility can depend on carried metadata;
// a nil MatchFunc matches every key-equal pair.
type MatchFunc func(left, right Record) bool

// intsPool recycles the per-invocation contribution counters and key-group
// windows of the truncated joins.
var intsPool = sync.Pool{New: func() any { s := make([]int, 0, 256); return &s }}

// byKeyThenTag is the join adapter's sort order, hoisted to package level so
// the steady-state join path does not re-allocate the comparator closure on
// every invocation (SortBuffer may retain it while parallel layers run).
var byKeyThenTag = ByColumnAt(0, 1)

// getInts borrows a zeroed int slice of length n.
func getInts(n int) *[]int {
	p := intsPool.Get().(*[]int)
	s := (*p)[:0]
	for len(s) < n {
		s = append(s, 0)
	}
	*p = s
	return p
}

func putInts(p *[]int) {
	*p = (*p)[:0]
	intsPool.Put(p)
}

// TruncatedSortMergeJoinInto implements the b-truncated oblivious
// sort-merge join of Example 5.1 with truncation bound `bound` (the omega of
// trans_truncate when used inside Transform):
//
//  1. Union the two inputs, tagging T1 rows before T2 rows, and obliviously
//     sort on the join attribute with the tag as tie-break.
//  2. Linearly scan the sorted array. After accessing each tuple, emit
//     exactly `bound` output slots: true join entries between the accessed
//     T2 tuple and preceding key-equal T1 tuples (subject to per-record
//     contribution counters), padded with dummies — so the output length is
//     bound*(len(t1)+len(t2)) regardless of the data.
//
// Every input record contributes at most `bound` entries across the whole
// invocation (Eq. 3); exceeding joins are discarded, which is the source of
// truncation error studied in Section 7.4. Output rows concatenate the T1
// and T2 attributes and are appended to dst, whose arity must equal the
// concatenated record arities. All intermediates — the tagged sorted union
// and the contribution counters — come from pools, and output rows are
// written straight into dst's arena, so a warm call allocates nothing beyond
// dst's own growth.
func TruncatedSortMergeJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op) {
	if bound < 1 {
		bound = 1
	}
	outArity := dst.Arity()

	// Build the tagged union as an arity-3 buffer with columns
	// (key, tag, srcIndex): T1 rows tag 0, T2 rows tag 1. The payloads stay
	// attached through the scan via srcIndex back into the input slices.
	adapter := GetBuffer(3)
	defer adapter.Release()
	adapter.Grow(len(t1) + len(t2))
	for i, r := range t1 {
		adapter.AppendRow(table.Row{r.Row[key1], 0, int64(i)}, -1, -1)
	}
	for i, r := range t2 {
		adapter.AppendRow(table.Row{r.Row[key2], 1, int64(i)}, -1, -1)
	}

	// Oblivious sort of the union on (key, tag), charged at the real network
	// cost for the wider input side plus the key column.
	tupleBits := 64 * (max(recArity(t1), recArity(t2)) + 1)
	SortBuffer(adapter, byKeyThenTag, meter, op, tupleBits)

	// Per-record contribution counters for this invocation.
	contrib1p, contrib2p := getInts(len(t1)), getInts(len(t2))
	windowp := getInts(0)
	defer putInts(contrib1p)
	defer putInts(contrib2p)
	defer putInts(windowp)
	contrib1, contrib2 := *contrib1p, *contrib2p

	dst.Grow(bound * adapter.Len())
	window := (*windowp)[:0] // indices into t1 sharing the current key
	var windowKey int64
	for i := 0; i < adapter.Len(); i++ {
		key, tag, src := adapter.At(i, 0), int(adapter.At(i, 1)), int(adapter.At(i, 2))
		// A new key group resets the T1 window; the scan only ever needs the
		// current group because T1 sorts before T2 within a key.
		if key != windowKey {
			window = window[:0]
			windowKey = key
		}
		emitted := 0
		if tag == 0 {
			window = append(window, src)
		} else {
			r := t2[src]
			for _, li := range window {
				if emitted >= bound {
					break
				}
				if contrib1[li] >= bound || contrib2[src] >= bound {
					continue
				}
				l := t1[li]
				if match != nil && !match(l, r) {
					continue
				}
				dst.AppendJoin(l.Row, r.Row, l.ID, r.ID)
				contrib1[li]++
				contrib2[src]++
				emitted++
			}
		}
		for ; emitted < bound; emitted++ {
			dst.AppendDummy()
		}
	}
	*windowp = window
	// The emit loop above touches each slot exactly once; charge the output
	// linear scan (predicate + conditional copy per slot).
	if meter != nil {
		meter.ChargeScan(op, bound*adapter.Len(), 64*outArity)
	}
}

func recArity(rs []Record) int {
	if len(rs) == 0 {
		return 0
	}
	return len(rs[0].Row)
}

// TruncatedNestedLoopJoinInto implements Algorithm 4: for each outer tuple,
// scan the whole inner relation, emit a join entry when both tuples still
// have contribution budget and the keys (and match predicate) agree, then
// obliviously sort the per-outer intermediate array and keep its first
// `bound` slots. The output length is exactly bound*len(t1). Output slots
// are appended to dst, whose arity must equal the concatenated record
// arities; the per-outer intermediate array is a single pooled buffer reused
// across outer tuples.
func TruncatedNestedLoopJoinInto(dst *Buffer, t1, t2 []Record, key1, key2 int, match MatchFunc, bound int, meter *mpc.Meter, op mpc.Op) {
	if bound < 1 {
		bound = 1
	}
	outArity := dst.Arity()

	budget1p, budget2p := getInts(len(t1)), getInts(len(t2))
	defer putInts(budget1p)
	defer putInts(budget2p)
	budget1, budget2 := *budget1p, *budget2p
	for i := range budget1 {
		budget1[i] = bound
	}
	for i := range budget2 {
		budget2[i] = bound
	}

	oi := GetBuffer(outArity)
	defer oi.Release()
	dst.Grow(bound * len(t1))
	for i, l := range t1 {
		oi.Reset()
		oi.Grow(len(t2))
		for j, r := range t2 {
			if meter != nil {
				meter.ChargeEqualities(op, 1, 64)
			}
			if budget1[i] > 0 && budget2[j] > 0 &&
				l.Row[key1] == r.Row[key2] &&
				(match == nil || match(l, r)) {
				oi.AppendJoin(l.Row, r.Row, l.ID, r.ID)
				budget1[i]--
				budget2[j]--
			} else {
				oi.AppendDummy()
			}
		}
		// Alg 4:12-13 — oblivious sort of the intermediate array, keep b.
		SortBuffer(oi, ByIsViewFirstAt, meter, op, 64*outArity)
		for k := 0; k < bound; k++ {
			if k < oi.Len() {
				dst.AppendFrom(oi, k)
			} else {
				dst.AppendDummy()
			}
		}
	}
}
