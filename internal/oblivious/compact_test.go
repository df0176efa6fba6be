package oblivious

import (
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// tightCompact runs TightCompactInto into fresh buffers of src's arity.
func tightCompact(src *Buffer, cap int, meter *mpc.Meter, tupleBits int) (out, overflow *Buffer) {
	out, overflow = NewBuffer(src.Arity(), 0), NewBuffer(src.Arity(), 0)
	TightCompactInto(src, cap, out, overflow, meter, mpc.OpTransform, tupleBits)
	return out, overflow
}

func TestTightCompactBasic(t *testing.T) {
	src := bufferOf(2, []slot{
		{row: table.Row{0, 0}, left: -1, right: -1},
		{row: table.Row{1, 0}, real: true, left: 10, right: 20},
		{row: table.Row{0, 0}, left: -1, right: -1},
		{row: table.Row{2, 0}, real: true, left: 11, right: 21},
	})
	m := mpc.NewMeter(mpc.DefaultCostModel())
	out, overflow := tightCompact(src, 3, m, 128)
	if out.Len() != 3 {
		t.Fatalf("output length %d, want cap 3", out.Len())
	}
	if out.Real() != 2 {
		t.Errorf("output real count %d, want 2", out.Real())
	}
	if overflow.Len() != 0 {
		t.Errorf("unexpected overflow %+v", slotsOf(overflow))
	}
	// Charged two linear passes.
	if want := float64(2*4) * 128 * m.Model().ANDGatesPerScanBit; m.Gates(mpc.OpTransform) != want {
		t.Errorf("charged %v gates, want %v", m.Gates(mpc.OpTransform), want)
	}
}

func TestTightCompactOverflow(t *testing.T) {
	ss := make([]slot, 6)
	for i := range ss {
		ss[i] = slot{row: table.Row{int64(i)}, real: true}
	}
	out, overflow := tightCompact(bufferOf(1, ss), 4, nil, 64)
	if out.Len() != 4 || out.Real() != 4 {
		t.Errorf("out: %d slots %d real", out.Len(), out.Real())
	}
	if overflow.Len() != 2 {
		t.Fatalf("overflow %d, want 2", overflow.Len())
	}
	if overflow.Real() != overflow.Len() {
		t.Error("overflow carries dummies")
	}
}

func TestTightCompactEdgeCases(t *testing.T) {
	// Negative cap clamps to zero; everything real overflows.
	out, overflow := tightCompact(bufferOf(1, []slot{{row: table.Row{1}, real: true}}), -1, nil, 64)
	if out.Len() != 0 || overflow.Len() != 1 {
		t.Errorf("negative cap: out=%d overflow=%d", out.Len(), overflow.Len())
	}
	// Empty input pads to cap with dummies.
	out, overflow = tightCompact(NewBuffer(2, 0), 2, nil, 64)
	if out.Len() != 2 || overflow.Len() != 0 || out.Real() != 0 {
		t.Errorf("empty input: out=%d overflow=%d", out.Len(), overflow.Len())
	}
}

func TestTightCompactPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(21)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 30; trial++ {
		src, ss := randBuffer(rng, 40)
		cap := rng.Intn(50)
		out, overflow := tightCompact(src, cap, nil, 64)
		combined := append(realRows(out), realRows(overflow)...)
		if !table.MultisetEqual(combined, realRowsOf(ss)) {
			t.Fatalf("trial %d: compaction changed the real multiset", trial)
		}
		if out.Len() != cap {
			t.Fatalf("trial %d: out length %d != cap %d", trial, out.Len(), cap)
		}
	}
}

func TestByColumnOrdering(t *testing.T) {
	// Slots: 0 real(9,0) 1 dummy 2 real(0,0) 3 dummy 4 real(1,1) 5 real(2,0)
	// 6 real(1,0).
	b := bufferOf(2, []slot{
		{row: table.Row{9, 0}, real: true},
		{row: table.Row{0, 0}},
		{row: table.Row{0, 0}, real: true},
		{row: table.Row{0, 0}},
		{row: table.Row{1, 1}, real: true},
		{row: table.Row{2, 0}, real: true},
		{row: table.Row{1, 0}, real: true},
	})
	less := ByColumnAt(0, 1)
	// Dummies sink regardless of payload.
	if !less(b, 0, 1) {
		t.Error("real must order before dummy")
	}
	if less(b, 1, 2) {
		t.Error("dummy must not order before real")
	}
	if less(b, 1, 3) {
		t.Error("dummy-dummy must not swap")
	}
	// Key ordering, then tag tie-break.
	if !less(b, 4, 5) {
		t.Error("key order wrong")
	}
	if !less(b, 6, 4) {
		t.Error("tag tie-break wrong")
	}
	if less(b, 4, 4) {
		t.Error("equal slots must not swap")
	}
}

func TestSortedByIsViewDetectsViolations(t *testing.T) {
	good := bufferOf(0, []slot{{real: true}, {real: true}, {}, {}})
	if !SortedByIsViewBuffer(good) {
		t.Error("sorted array reported unsorted")
	}
	bad := bufferOf(0, []slot{{real: true}, {}, {real: true}})
	if SortedByIsViewBuffer(bad) {
		t.Error("unsorted array reported sorted")
	}
	if !SortedByIsViewBuffer(NewBuffer(0, 0)) {
		t.Error("empty array should count as sorted")
	}
}

func TestNLJEmptyInner(t *testing.T) {
	t1 := []Record{{ID: 1, Row: table.Row{1, 0}}}
	out := NewBuffer(2, 0)
	TruncatedNestedLoopJoinInto(out, t1, nil, 0, 0, nil, 3, nil, mpc.OpTransform)
	if out.Len() != 3 {
		t.Fatalf("empty-inner NLJ output %d, want bound*|T1| = 3", out.Len())
	}
	if out.Real() != 0 {
		t.Error("joins materialized from an empty inner relation")
	}
}

func TestRecArityEmpty(t *testing.T) {
	if recArity(nil) != 0 {
		t.Error("empty record slice arity wrong")
	}
	if recArity([]Record{{Row: table.Row{1, 2, 3}}}) != 3 {
		t.Error("arity wrong")
	}
}
