package oblivious

import (
	"sync"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// Buffer is the representation of a padded secure array: a buffer stores
// its slots as parallel columns over one flat payload arena —
//
//	payload   table.Flat  n rows x arity attributes, one contiguous []int64
//	flag      []bool      the isView bit per slot
//	left/right []int64    source-record IDs per slot (-1 when dummy)
//
// plus an incrementally maintained count of real slots, so Real() is O(1)
// on every read path. Every oblivious operator (sort, compaction, the
// truncated joins, select, count) runs over buffers. Buffers come from a
// per-arity free list (GetBuffer/Release), so steady-state operation
// allocates nothing.
type Buffer struct {
	pay   table.Flat
	flag  []bool
	left  []int64
	right []int64
	real  int
}

// NewBuffer creates an empty buffer for rows of the given arity with
// capacity for rowCap rows pre-reserved.
func NewBuffer(arity, rowCap int) *Buffer {
	b := &Buffer{
		pay:   *table.NewFlat(arity, rowCap),
		flag:  make([]bool, 0, rowCap),
		left:  make([]int64, 0, rowCap),
		right: make([]int64, 0, rowCap),
	}
	return b
}

// bufferPools holds one free list per arity: buffers of different arities
// are never mixed, so a recycled buffer's arena capacity is always useful to
// its next borrower.
var bufferPools sync.Map // int (arity) -> *sync.Pool

// GetBuffer borrows an empty buffer of the given arity from the per-arity
// free list. Release it when done; the buffer and its arena are then reused.
func GetBuffer(arity int) *Buffer {
	p, ok := bufferPools.Load(arity)
	if !ok {
		p, _ = bufferPools.LoadOrStore(arity, &sync.Pool{
			New: func() any { return NewBuffer(arity, 64) },
		})
	}
	b := p.(*sync.Pool).Get().(*Buffer)
	b.Reset()
	return b
}

// Release returns the buffer to its arity's free list. The caller must not
// use b (or row views into it) afterwards.
func (b *Buffer) Release() {
	if p, ok := bufferPools.Load(b.Arity()); ok {
		b.Reset()
		p.(*sync.Pool).Put(b)
	}
}

// Arity returns the payload attributes per slot.
func (b *Buffer) Arity() int { return b.pay.Arity() }

// Len returns the number of slots (real + dummy).
func (b *Buffer) Len() int { return b.pay.Rows() }

// Real returns the number of real (isView) slots. The count is maintained
// incrementally by every mutation, so this is O(1) — the secret-shared
// cardinality counter of Algorithm 1, kept exact at all times.
func (b *Buffer) Real() int { return b.real }

// Payload exposes the flat payload arena.
func (b *Buffer) Payload() *table.Flat { return &b.pay }

// Row returns slot i's payload as a view into the arena (no copy); it is
// invalidated by growing appends.
func (b *Buffer) Row(i int) table.Row { return b.pay.Row(i) }

// At returns payload attribute j of slot i.
func (b *Buffer) At(i, j int) int64 { return b.pay.At(i, j) }

// IsReal reports slot i's isView bit.
func (b *Buffer) IsReal(i int) bool { return b.flag[i] }

// SetReal writes slot i's isView bit, maintaining the real count.
func (b *Buffer) SetReal(i int, real bool) {
	if b.flag[i] != real {
		if real {
			b.real++
		} else {
			b.real--
		}
		b.flag[i] = real
	}
}

// LeftID and RightID return slot i's source-record IDs (-1 when dummy).
func (b *Buffer) LeftID(i int) int64  { return b.left[i] }
func (b *Buffer) RightID(i int) int64 { return b.right[i] }

// AppendRow appends a real slot carrying a copy of row with the given
// source IDs.
func (b *Buffer) AppendRow(row table.Row, leftID, rightID int64) {
	b.pay.AppendRow(row)
	b.flag = append(b.flag, true)
	b.left = append(b.left, leftID)
	b.right = append(b.right, rightID)
	b.real++
}

// AppendJoin appends a real slot whose payload is the concatenation l||r —
// the join-output append, with no temporary row materialized.
func (b *Buffer) AppendJoin(l, r table.Row, leftID, rightID int64) {
	b.pay.AppendConcat(l, r)
	b.flag = append(b.flag, true)
	b.left = append(b.left, leftID)
	b.right = append(b.right, rightID)
	b.real++
}

// AppendSlot appends one fully specified slot — payload row, isView bit and
// both source IDs — maintaining the real count. It is the generic
// reconstruction append the snapshot codec uses; the specialized appends
// (AppendRow, AppendJoin, AppendDummy) remain the hot-path forms.
func (b *Buffer) AppendSlot(row table.Row, real bool, leftID, rightID int64) {
	b.pay.AppendRow(row)
	b.flag = append(b.flag, real)
	b.left = append(b.left, leftID)
	b.right = append(b.right, rightID)
	if real {
		b.real++
	}
}

// AppendColumns bulk-appends decoded columnar state: row-major payload data
// plus the parallel flag/ID columns, which must all describe the same number
// of slots. It is the decode-side counterpart of the column accessors.
func (b *Buffer) AppendColumns(payload []int64, flags []bool, left, right []int64) {
	n := len(flags)
	if len(left) != n || len(right) != n || (b.Arity() > 0 && len(payload) != n*b.Arity()) ||
		(b.Arity() == 0 && len(payload) != 0) {
		panic("oblivious: mismatched column lengths")
	}
	b.pay.AppendData(payload)
	if b.Arity() == 0 {
		// An arity-0 arena carries no attribute data, so the payload append
		// cannot account the rows; the flag column carries the slot count.
		for range flags {
			b.pay.AppendZeroRow()
		}
	}
	b.flag = append(b.flag, flags...)
	b.left = append(b.left, left...)
	b.right = append(b.right, right...)
	for _, fl := range flags {
		if fl {
			b.real++
		}
	}
}

// Flags exposes the isView column for bulk readers (the snapshot codec).
// Callers must not mutate or retain it across appends.
func (b *Buffer) Flags() []bool { return b.flag }

// LeftIDs and RightIDs expose the source-ID columns for bulk readers (the
// snapshot codec). Callers must not mutate or retain them across appends.
func (b *Buffer) LeftIDs() []int64  { return b.left }
func (b *Buffer) RightIDs() []int64 { return b.right }

// AppendDummy appends a dummy slot (zero payload, isView false, IDs -1).
func (b *Buffer) AppendDummy() {
	b.pay.AppendZeroRow()
	b.flag = append(b.flag, false)
	b.left = append(b.left, -1)
	b.right = append(b.right, -1)
}

// AppendFrom appends a copy of slot i of src (equal arity required).
func (b *Buffer) AppendFrom(src *Buffer, i int) {
	b.pay.AppendFrom(&src.pay, i)
	b.flag = append(b.flag, src.flag[i])
	b.left = append(b.left, src.left[i])
	b.right = append(b.right, src.right[i])
	if src.flag[i] {
		b.real++
	}
}

// AppendRange appends copies of src's slots [lo, hi) with one bulk copy per
// column — the cache-append and cache-to-view move.
func (b *Buffer) AppendRange(src *Buffer, lo, hi int) {
	if hi <= lo {
		return
	}
	b.pay.AppendRows(&src.pay, lo, hi)
	b.flag = append(b.flag, src.flag[lo:hi]...)
	b.left = append(b.left, src.left[lo:hi]...)
	b.right = append(b.right, src.right[lo:hi]...)
	for _, fl := range src.flag[lo:hi] {
		if fl {
			b.real++
		}
	}
}

// AppendAll appends every slot of src.
func (b *Buffer) AppendAll(src *Buffer) { b.AppendRange(src, 0, src.Len()) }

// Grow reserves capacity for extra more slots so subsequent appends neither
// allocate nor invalidate row views.
func (b *Buffer) Grow(extra int) {
	b.pay.Grow(extra)
	if need := len(b.flag) + extra; cap(b.flag) < need {
		nf := make([]bool, len(b.flag), need)
		copy(nf, b.flag)
		b.flag = nf
	}
	b.left = growInt64(b.left, extra)
	b.right = growInt64(b.right, extra)
}

func growInt64(s []int64, extra int) []int64 {
	if need := len(s) + extra; cap(s) < need {
		ns := make([]int64, len(s), need)
		copy(ns, s)
		return ns
	}
	return s
}

// Truncate drops every slot from index n on, returning the number of real
// slots removed (the count of the dropped tail, maintained exactly). n is
// clamped to [0, Len] — an oversized n must never reslice into recycled
// pool capacity, which would resurrect stale slots.
func (b *Buffer) Truncate(n int) (droppedReal int) {
	if n >= b.Len() {
		return 0
	}
	if n < 0 {
		n = 0
	}
	for i := n; i < b.Len(); i++ {
		if b.flag[i] {
			droppedReal++
		}
	}
	b.pay.Truncate(n)
	b.flag = b.flag[:n]
	b.left = b.left[:n]
	b.right = b.right[:n]
	b.real -= droppedReal
	return droppedReal
}

// CutPrefix removes the first n slots in place (the remainder slides to the
// front of the arena — no allocation), returning the number of real slots
// removed.
func (b *Buffer) CutPrefix(n int) (removedReal int) {
	if n <= 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		if b.flag[i] {
			removedReal++
		}
	}
	b.pay.CutPrefix(n)
	copy(b.flag, b.flag[n:])
	b.flag = b.flag[:len(b.flag)-n]
	copy(b.left, b.left[n:])
	b.left = b.left[:len(b.left)-n]
	copy(b.right, b.right[n:])
	b.right = b.right[:len(b.right)-n]
	b.real -= removedReal
	return removedReal
}

// Reset empties the buffer, keeping its storage for reuse.
func (b *Buffer) Reset() {
	b.pay.Reset()
	b.flag = b.flag[:0]
	b.left = b.left[:0]
	b.right = b.right[:0]
	b.real = 0
}

// ScanReal recounts the real slots with a full scan. It exists to pin the
// maintained counter in tests (counter == scan); production paths use the
// O(1) Real.
func (b *Buffer) ScanReal() int {
	n := 0
	for _, f := range b.flag {
		if f {
			n++
		}
	}
	return n
}

// LessAt orders buffer slots for the sorting network, comparing slots i and
// j of b. Implementations must be strict weak orderings computable by a
// constant-size circuit per comparison.
type LessAt func(b *Buffer, i, j int) bool

// ByIsViewFirstAt orders real slots before dummies — the key used by Shrink
// so that a prefix cut of the sorted cache always fetches real data first
// (Figure 3).
func ByIsViewFirstAt(b *Buffer, i, j int) bool { return b.flag[i] && !b.flag[j] }

// ByColumnAt orders slots on a payload column, dummies last; the sort-merge
// join uses it to sort the unioned input on the join attribute. Ties are
// broken by the tag column (T1 before T2) per Example 5.1.
func ByColumnAt(col, tagCol int) LessAt {
	return func(b *Buffer, i, j int) bool {
		switch {
		case b.flag[i] != b.flag[j]:
			return b.flag[i]
		case !b.flag[i]:
			return false
		case b.At(i, col) != b.At(j, col):
			return b.At(i, col) < b.At(j, col)
		default:
			return b.At(i, tagCol) < b.At(j, tagCol)
		}
	}
}

// permPool recycles the index permutations SortBuffer sorts in place of the
// payload rows.
var permPool = sync.Pool{New: func() any { s := make([]int32, 0, 1024); return &s }}

// SortBuffer runs Batcher's odd-even merge network over the buffer in place,
// charging one compare-exchange per comparator to meter under op. The
// network layout depends only on Len; the comparator count equals
// mpc.SortCompareExchanges(Len) exactly (verified in tests). tupleBits is
// the secret payload width per slot. Instead of moving arity-wide rows at
// every comparator, the network swaps entries of an index permutation; the
// payload, flag and ID columns are gathered once at the end. Steady state
// allocates nothing: the permutation and the gather scratch come from pools.
func SortBuffer(b *Buffer, less LessAt, meter *mpc.Meter, op mpc.Op, tupleBits int) {
	n := b.Len()
	if n <= 1 {
		return
	}
	if meter != nil {
		meter.ChargeSort(op, n, tupleBits)
	}
	pp := permPool.Get().(*[]int32)
	perm := (*pp)[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	// Separate closure literals per branch keep the serial one off the heap
	// (see parallelEligible). The parallel branch captures a rebound,
	// never-reassigned slice so the escaping closure doesn't drag the perm
	// variable itself onto the heap for serial sorts.
	if parallelEligible(n) {
		pm := perm
		forEachComparatorParallel(n, func(i, j int) {
			if less(b, int(pm[j]), int(pm[i])) {
				pm[i], pm[j] = pm[j], pm[i]
			}
		})
	} else {
		forEachComparator(n, func(i, j int) {
			if less(b, int(perm[j]), int(perm[i])) {
				perm[i], perm[j] = perm[j], perm[i]
			}
		})
	}
	b.applyPerm(perm)
	*pp = perm[:0]
	permPool.Put(pp)
}

// applyPerm reorders the buffer so slot i holds the old slot perm[i]: one
// gather into a pooled scratch buffer, then a storage swap.
func (b *Buffer) applyPerm(perm []int32) {
	s := GetBuffer(b.Arity())
	s.Grow(len(perm))
	for _, pi := range perm {
		s.AppendFrom(b, int(pi))
	}
	*b, *s = *s, *b
	s.Release()
}

// SortedByIsViewBuffer reports whether all real slots precede all dummies.
func SortedByIsViewBuffer(b *Buffer) bool {
	seenDummy := false
	for _, f := range b.flag {
		if !f {
			seenDummy = true
		} else if seenDummy {
			return false
		}
	}
	return true
}

// TightCompactInto obliviously packs the real slots of src into dst up to
// cap slots, padding dst with dummies to exactly cap. It models an
// order-insensitive oblivious compaction network (linear passes of
// bit-controlled moves rather than a full sort), so it is charged at scan
// rate — two passes, mark+prefix-sum and controlled move. This is what lets
// Transform tighten its exhaustively padded join output to the public
// maximum-new-entries bound before caching without inflating its cost
// profile. Real slots beyond cap (possible only if the caller's bound was
// not a true upper bound) are appended to overflow rather than dropped. dst
// and overflow must have src's arity; both are appended to, not reset.
func TightCompactInto(src *Buffer, cap int, dst, overflow *Buffer, meter *mpc.Meter, op mpc.Op, tupleBits int) {
	if cap < 0 {
		cap = 0
	}
	if meter != nil {
		meter.ChargeScan(op, 2*src.Len(), tupleBits)
	}
	packed := 0
	dst.Grow(cap)
	for i := 0; i < src.Len(); i++ {
		if !src.flag[i] {
			continue
		}
		if packed < cap {
			dst.AppendFrom(src, i)
			packed++
		} else {
			overflow.AppendFrom(src, i)
		}
	}
	for ; packed < cap; packed++ {
		dst.AppendDummy()
	}
}

// SelectInto implements the oblivious selection of Appendix A.1.1: append
// every slot of src to dst with the isView bit anded with the predicate —
// same length, full obliviousness. Each input record contributes at most
// once, so no truncation machinery is needed. src is not modified.
func SelectInto(dst, src *Buffer, pred table.Predicate, meter *mpc.Meter, op mpc.Op) {
	if meter != nil {
		meter.ChargeScan(op, src.Len(), 64*src.Arity())
	}
	dst.Grow(src.Len())
	for i := 0; i < src.Len(); i++ {
		dst.AppendFrom(src, i)
		if src.flag[i] && !pred(src.Row(i)) {
			dst.SetReal(dst.Len()-1, false)
		}
	}
}

// CountBuffer performs a secure aggregate count over a padded array: one
// oblivious scan accumulating pred over real slots. This is the query
// operator for the paper's Q1/Q2 once the view is materialized. The
// predicate sees each row as a zero-copy view into the arena.
func CountBuffer(b *Buffer, pred table.Predicate, meter *mpc.Meter, op mpc.Op) int {
	if meter != nil {
		meter.ChargeScan(op, b.Len(), 64*b.Arity())
	}
	n := 0
	for i := 0; i < b.Len(); i++ {
		if b.flag[i] && pred(b.Row(i)) {
			n++
		}
	}
	return n
}
