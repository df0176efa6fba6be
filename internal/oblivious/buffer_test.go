package oblivious

import (
	"math/rand"
	"sort"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

func TestBufferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	ss := randSlots(rng, 37)
	ss[3].left, ss[3].right = 11, 22
	b := bufferOf(2, ss)
	if b.Len() != 37 || b.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", b.Len(), b.Arity())
	}
	slotsEqual(t, slotsOf(b), ss)
	if b.Real() != countReal(ss) || b.Real() != b.ScanReal() {
		t.Fatalf("real=%d scan=%d want %d", b.Real(), b.ScanReal(), countReal(ss))
	}
}

func TestBufferMutationsMaintainRealCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(2)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b := GetBuffer(2)
	defer b.Release()
	check := func(op string) {
		t.Helper()
		if b.Real() != b.ScanReal() {
			t.Fatalf("after %s: counter %d != scan %d", op, b.Real(), b.ScanReal())
		}
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(8) {
		case 0:
			b.AppendRow(table.Row{rng.Int63n(50), 1}, int64(i), -1)
		case 1:
			b.AppendDummy()
		case 2:
			b.AppendSlot(table.Row{7, 8}, rng.Intn(2) == 0, -1, -1)
		case 3:
			if b.Len() > 0 {
				b.SetReal(rng.Intn(b.Len()), rng.Intn(2) == 0)
			}
		case 4:
			b.Truncate(rng.Intn(b.Len() + 1))
		case 5:
			b.CutPrefix(rng.Intn(b.Len() + 1))
		case 6:
			other, _ := randBuffer(rng, rng.Intn(10))
			b.AppendAll(other)
		case 7:
			SortBuffer(b, ByIsViewFirstAt, nil, mpc.OpOther, 64)
		}
		check("op")
	}
}

// TestSortBufferChargesLikeEntrySort: a SortBuffer over a non-power-of-two
// length charges the compare-exchanges of the padded network, as the former
// row-form sort did, and a one-slot buffer charges nothing.
func TestSortBufferChargesLikeEntrySort(t *testing.T) {
	rng := rand.New(rand.NewSource(4)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b, _ := randBuffer(rng, 24)
	defer b.Release()
	m := mpc.NewMeter(mpc.DefaultCostModel())
	SortBuffer(b, ByIsViewFirstAt, m, mpc.OpShrink, 128)
	want := float64(mpc.SortCompareExchanges(24)) * 128 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); got != want {
		t.Errorf("charged %v gates, want %v", got, want)
	}
	// Tiny buffers charge nothing.
	m.Reset()
	one := GetBuffer(2)
	defer one.Release()
	one.AppendDummy()
	SortBuffer(one, ByIsViewFirstAt, m, mpc.OpShrink, 128)
	if m.TotalGates() != 0 {
		t.Error("n=1 sort should be free")
	}
}

// TestSortBufferAgainstOracles checks SortBuffer against oracles that share
// nothing with the network: the output is a permutation of the input (flags
// and IDs included), it is non-decreasing under the ordering, and on inputs
// with distinct (key, tag) it equals sort.SliceStable's order.
func TestSortBufferAgainstOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	less := ByColumnAt(0, 1)
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(150)
		ss := randSlots(rng, n)
		for i := range ss {
			// Distinct IDs make the permutation check see every slot.
			ss[i].left, ss[i].right = int64(i), int64(-i)
		}
		if trial%2 == 1 {
			// Repeated (key, tag) pairs: only the first two oracles apply.
			for i := range ss {
				ss[i].row[1] = int64(rng.Intn(2))
			}
		}
		b := bufferOf(2, ss)
		SortBuffer(b, less, nil, mpc.OpOther, 64)
		got := slotsOf(b)

		// 1. A permutation of the input.
		if len(got) != len(ss) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(ss))
		}
		seen := make([]bool, n)
		for _, g := range got {
			if g.left < 0 || g.left >= int64(n) {
				t.Fatalf("trial %d: output slot %+v carries an unknown ID", trial, g)
			}
			w := ss[g.left]
			if seen[g.left] || !g.row.Equal(w.row) || g.real != w.real || g.right != w.right {
				t.Fatalf("trial %d: output slot %+v is not an unused input slot", trial, g)
			}
			seen[g.left] = true
		}

		// 2. Non-decreasing under the ordering.
		for i := 1; i < b.Len(); i++ {
			if less(b, i, i-1) {
				t.Fatalf("trial %d: slot %d orders before slot %d", trial, i, i-1)
			}
		}

		// 3. On distinct (key, tag), the stable-sort order. Dummies all tie
		// under the ordering and the network is not stable, so only the real
		// prefix has a unique order; check 2 already put every dummy behind
		// it.
		if trial%2 == 0 {
			want := append([]slot(nil), ss...)
			sort.SliceStable(want, func(i, j int) bool {
				a, c := want[i], want[j]
				switch {
				case a.real != c.real:
					return a.real
				case !a.real:
					return false
				case a.row[0] != c.row[0]:
					return a.row[0] < c.row[0]
				default:
					return a.row[1] < c.row[1]
				}
			})
			r := countReal(ss)
			slotsEqual(t, got[:r], want[:r])
		}
	}
}

// TestTightCompactIntoMatchesFilterPad checks TightCompactInto against a
// filter-and-pad oracle: the real slots in input order, the first cap of
// them followed by dummy padding up to cap, the rest as overflow.
func TestTightCompactIntoMatchesFilterPad(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 30; trial++ {
		src, ss := randBuffer(rng, 40)
		cap := rng.Intn(50)
		var wantOut, wantOver []slot
		for _, s := range ss {
			switch {
			case !s.real:
			case len(wantOut) < cap:
				wantOut = append(wantOut, s)
			default:
				wantOver = append(wantOver, s)
			}
		}
		for len(wantOut) < cap {
			wantOut = append(wantOut, slot{row: table.Row{0, 0}, left: -1, right: -1})
		}

		dst, over := GetBuffer(2), GetBuffer(2)
		TightCompactInto(src, cap, dst, over, nil, mpc.OpTransform, 64)
		slotsEqual(t, slotsOf(dst), wantOut)
		slotsEqual(t, slotsOf(over), wantOver)
		dst.Release()
		over.Release()
	}
}

// TestSelectIntoMatchesFilter checks SelectInto against a plain filter over
// the slots: same length and payloads, isView anded with the predicate.
func TestSelectIntoMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(6)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	src, ss := randBuffer(rng, 25)
	pred := func(r table.Row) bool { return r[0]%3 == 0 }
	want := make([]slot, len(ss))
	for i, s := range ss {
		want[i] = s
		want[i].real = s.real && pred(s.row)
	}

	dst := GetBuffer(2)
	defer dst.Release()
	m := mpc.NewMeter(mpc.DefaultCostModel())
	SelectInto(dst, src, pred, m, mpc.OpQuery)
	slotsEqual(t, slotsOf(dst), want)
	slotsEqual(t, slotsOf(src), ss) // src must be unmodified
	if dst.Real() != countReal(want) {
		t.Errorf("real counter %d, want %d", dst.Real(), countReal(want))
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("selection charged nothing")
	}
}

// TestCountBufferMatchesLoop checks CountBuffer against a plain loop over
// the slots.
func TestCountBufferMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b, ss := randBuffer(rng, 33)
	pred := func(r table.Row) bool { return r[0] < 40 }
	want := 0
	for _, s := range ss {
		if s.real && pred(s.row) {
			want++
		}
	}
	m := mpc.NewMeter(mpc.DefaultCostModel())
	if got := CountBuffer(b, pred, m, mpc.OpQuery); got != want {
		t.Errorf("CountBuffer = %d, loop = %d", got, want)
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("count charged nothing")
	}
}

func TestTruncateClamps(t *testing.T) {
	b := GetBuffer(2)
	defer b.Release()
	b.AppendRow(table.Row{1, 2}, -1, -1)
	b.AppendDummy()
	if got := b.Truncate(99); got != 0 || b.Len() != 2 {
		t.Errorf("oversized truncate: dropped=%d len=%d", got, b.Len())
	}
	if got := b.Truncate(-3); got != 1 || b.Len() != 0 || b.Real() != 0 {
		t.Errorf("negative truncate: dropped=%d len=%d real=%d", got, b.Len(), b.Real())
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer(5)
	b.AppendDummy()
	b.Release()
	b2 := GetBuffer(5)
	defer b2.Release()
	if b2.Len() != 0 || b2.Real() != 0 || b2.Arity() != 5 {
		t.Errorf("recycled buffer not reset: len=%d real=%d arity=%d", b2.Len(), b2.Real(), b2.Arity())
	}
}

func TestAppendJoinConcatenates(t *testing.T) {
	b := GetBuffer(4)
	defer b.Release()
	b.AppendJoin(table.Row{1, 2}, table.Row{3, 4}, 7, 9)
	if !b.Row(0).Equal(table.Row{1, 2, 3, 4}) {
		t.Errorf("join row = %v", b.Row(0))
	}
	if b.LeftID(0) != 7 || b.RightID(0) != 9 || !b.IsReal(0) {
		t.Errorf("join slot metadata wrong: %+v", slotsOf(b)[0])
	}
}

// Allocation regressions (the pooled-path satellite): warm calls of the
// columnar sort, joins and compaction must stay off the allocator — a small
// constant per op at most (pool churn after a GC can add stragglers).
const maxSteadyAllocs = 8.0

func TestSortBufferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b, _ := randBuffer(rng, 512)
	avg := testing.AllocsPerRun(100, func() {
		SortBuffer(b, ByIsViewFirstAt, nil, mpc.OpOther, 64)
	})
	if avg > maxSteadyAllocs {
		t.Errorf("SortBuffer allocates %.1f/op warm, want <= %v", avg, maxSteadyAllocs)
	}
}

func TestSMJIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	rows1 := make([]table.Row, 64)
	rows2 := make([]table.Row, 64)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(16)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(16)), int64(i)}
	}
	r1, r2 := mkRecords(rows1), mkRecords(rows2)
	dst := GetBuffer(4)
	defer dst.Release()
	TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform) // warm dst arena
	avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform)
	})
	if avg > maxSteadyAllocs {
		t.Errorf("TruncatedSortMergeJoinInto allocates %.1f/op warm, want <= %v", avg, maxSteadyAllocs)
	}
}

func TestTightCompactIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	src, _ := randBuffer(rng, 256)
	dst, over := GetBuffer(2), GetBuffer(2)
	defer dst.Release()
	defer over.Release()
	avg := testing.AllocsPerRun(100, func() {
		dst.Reset()
		over.Reset()
		TightCompactInto(src, 64, dst, over, nil, mpc.OpTransform, 64)
	})
	if avg > maxSteadyAllocs {
		t.Errorf("TightCompactInto allocates %.1f/op warm, want <= %v", avg, maxSteadyAllocs)
	}
}

func BenchmarkSortBuffer1K(b *testing.B) {
	rng := rand.New(rand.NewSource(99)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	base, _ := randBuffer(rng, 1024)
	work := GetBuffer(2)
	defer work.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Reset()
		work.AppendAll(base)
		SortBuffer(work, ByIsViewFirstAt, nil, mpc.OpOther, 64)
	}
}

func BenchmarkSMJInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(100)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	rows1 := make([]table.Row, 128)
	rows2 := make([]table.Row, 128)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(32)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(32)), int64(i)}
	}
	r1, r2 := mkRecords(rows1), mkRecords(rows2)
	dst := GetBuffer(4)
	defer dst.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		TruncatedSortMergeJoinInto(dst, r1, r2, 0, 0, nil, 4, nil, mpc.OpTransform)
	}
}

func BenchmarkTightCompactInto(b *testing.B) {
	rng := rand.New(rand.NewSource(101)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	src, _ := randBuffer(rng, 512)
	dst, over := GetBuffer(2), GetBuffer(2)
	defer dst.Release()
	defer over.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		over.Reset()
		TightCompactInto(src, 128, dst, over, nil, mpc.OpTransform, 64)
	}
}
