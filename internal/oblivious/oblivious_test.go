package oblivious

import (
	"math/rand"
	"sort"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

func newMeter() *mpc.Meter { return mpc.NewMeter(mpc.DefaultCostModel()) }

// slot is one buffer slot in the clear, for building inputs and writing
// assertions.
type slot struct {
	row         table.Row
	real        bool
	left, right int64
}

// bufferOf builds an unpooled buffer of the given arity holding ss.
func bufferOf(arity int, ss []slot) *Buffer {
	b := NewBuffer(arity, len(ss))
	for _, s := range ss {
		b.AppendSlot(s.row, s.real, s.left, s.right)
	}
	return b
}

// slotsOf copies every slot of b out of the arena.
func slotsOf(b *Buffer) []slot {
	ss := make([]slot, b.Len())
	for i := range ss {
		ss[i] = slot{row: b.Row(i).Clone(), real: b.IsReal(i), left: b.LeftID(i), right: b.RightID(i)}
	}
	return ss
}

func slotsEqual(t *testing.T, got, want []slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.row.Equal(w.row) || g.real != w.real || g.left != w.left || g.right != w.right {
			t.Fatalf("slot %d: %+v, want %+v", i, g, w)
		}
	}
}

func countReal(ss []slot) int {
	n := 0
	for _, s := range ss {
		if s.real {
			n++
		}
	}
	return n
}

func realRowsOf(ss []slot) []table.Row {
	var out []table.Row
	for _, s := range ss {
		if s.real {
			out = append(out, s.row)
		}
	}
	return out
}

// realRows extracts the rows of b's real slots.
func realRows(b *Buffer) []table.Row { return realRowsOf(slotsOf(b)) }

// randSlots draws n arity-2 slots (key in [0,100), position as tag) with a
// fair coin for the isView bit.
func randSlots(rng *rand.Rand, n int) []slot {
	ss := make([]slot, n)
	for i := range ss {
		ss[i] = slot{row: table.Row{int64(rng.Intn(100)), int64(i)}, real: rng.Intn(2) == 0}
	}
	return ss
}

func randBuffer(rng *rand.Rand, n int) (*Buffer, []slot) {
	ss := randSlots(rng, n)
	return bufferOf(2, ss), ss
}

// byKey orders slots on column 0 alone, ignoring the isView bit.
func byKey(b *Buffer, i, j int) bool { return b.At(i, 0) < b.At(j, 0) }

func TestSortCorrectnessAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for n := 0; n <= 65; n++ {
		b, _ := randBuffer(rng, n)
		SortBuffer(b, byKey, nil, mpc.OpOther, 64)
		for i := 1; i < b.Len(); i++ {
			if b.At(i, 0) < b.At(i-1, 0) {
				t.Fatalf("n=%d: not sorted at %d: %v > %v", n, i, b.At(i-1, 0), b.At(i, 0))
			}
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		b, ss := randBuffer(rng, n)
		want := make([]int64, n)
		for i, s := range ss {
			want[i] = s.row[0]
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortBuffer(b, byKey, nil, mpc.OpOther, 64)
		for i := range want {
			if b.At(i, 0) != want[i] {
				t.Fatalf("trial %d: position %d = %d want %d", trial, i, b.At(i, 0), want[i])
			}
		}
	}
}

// TestSortDataIndependence: the number of comparator evaluations must depend
// only on the input length, never on the values — the defining property of
// an oblivious sort.
func TestSortDataIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for _, n := range []int{5, 16, 33, 100} {
		counts := make(map[int]bool)
		for trial := 0; trial < 10; trial++ {
			b, _ := randBuffer(rng, n)
			calls := 0
			SortBuffer(b, func(b *Buffer, i, j int) bool { calls++; return byKey(b, i, j) }, nil, mpc.OpOther, 64)
			counts[calls] = true
		}
		if len(counts) != 1 {
			t.Errorf("n=%d: comparator count varies across inputs: %v", n, counts)
		}
	}
}

// TestSortChargesPaddedNetwork: a sort charges exactly one compare-exchange
// per comparator of the padded network, at the given payload width.
func TestSortChargesPaddedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(4)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	m := newMeter()
	b, _ := randBuffer(rng, 8)
	SortBuffer(b, ByIsViewFirstAt, m, mpc.OpShrink, 128)
	want := float64(mpc.SortCompareExchanges(8)) * 128 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); got != want {
		t.Errorf("charged %v gates, want %v", got, want)
	}
	// Tiny inputs charge nothing.
	m.Reset()
	one := GetBuffer(2)
	defer one.Release()
	one.AppendDummy()
	SortBuffer(one, ByIsViewFirstAt, m, mpc.OpShrink, 128)
	if m.TotalGates() != 0 {
		t.Error("n=1 sort should be free")
	}
}

func TestByIsViewFirstOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 20; trial++ {
		b, ss := randBuffer(rng, 50)
		SortBuffer(b, ByIsViewFirstAt, nil, mpc.OpOther, 64)
		if !SortedByIsViewBuffer(b) {
			t.Fatal("reals not all ahead of dummies")
		}
		if b.Real() != countReal(ss) || b.ScanReal() != countReal(ss) {
			t.Fatal("sort changed the number of real slots")
		}
	}
}

// cutPrefix sorts b real-first and moves its first keep slots into a new
// buffer — the sort-then-cut read of Figure 3 that securearray.Cache.Read
// performs on the cache arena.
func cutPrefix(b *Buffer, keep int) *Buffer {
	SortBuffer(b, ByIsViewFirstAt, nil, mpc.OpShrink, 64)
	fetched := NewBuffer(b.Arity(), keep)
	fetched.AppendRange(b, 0, keep)
	b.CutPrefix(keep)
	return fetched
}

func TestCompactFetchesRealFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(6)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b, ss := randBuffer(rng, 40)
	real := countReal(ss)
	fetched := cutPrefix(b, real)
	if fetched.Len() != real || fetched.Real() != real {
		t.Errorf("fetched %d slots with %d real, want all %d real", fetched.Len(), fetched.Real(), real)
	}
	if b.Real() != 0 {
		t.Errorf("rest still holds %d real slots", b.Real())
	}
	if fetched.Len()+b.Len() != 40 {
		t.Error("compaction lost slots")
	}
}

// TestCompactClamping: the prune-style compaction (sort real-first, then
// Truncate to keep) clamps keep to [0, Len].
func TestCompactClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	b, ss := randBuffer(rng, 10)
	SortBuffer(b, ByIsViewFirstAt, nil, mpc.OpShrink, 64)
	if lost := b.Truncate(99); lost != 0 || b.Len() != 10 {
		t.Errorf("oversized keep: lost=%d len=%d, want 0 and 10", lost, b.Len())
	}
	if lost := b.Truncate(-5); lost != countReal(ss) || b.Len() != 0 || b.Real() != 0 {
		t.Errorf("negative keep: lost=%d len=%d real=%d, want %d, 0, 0", lost, b.Len(), b.Real(), countReal(ss))
	}
}

func TestCompactPartialFetchKeepsRealPriority(t *testing.T) {
	// Fewer slots than real entries: everything fetched must be real.
	ss := make([]slot, 20)
	for i := range ss {
		ss[i] = slot{row: table.Row{int64(i)}, real: i%2 == 0} // 10 real
	}
	b := bufferOf(1, ss)
	fetched := cutPrefix(b, 4)
	if fetched.Real() != 4 {
		t.Errorf("fetched %d real, want 4", fetched.Real())
	}
	if b.Real() != 6 {
		t.Errorf("rest has %d real, want 6", b.Real())
	}
}

func mkRecordsBase(rows []table.Row, base int64) []Record {
	rs := make([]Record, len(rows))
	for i, r := range rows {
		rs[i] = Record{ID: base + int64(i), Row: r}
	}
	return rs
}

func mkRecords(rows []table.Row) []Record { return mkRecordsBase(rows, 1000) }

// smj runs the truncated sort-merge join into a fresh buffer.
func smj(t1, t2 []Record, match MatchFunc, bound int, meter *mpc.Meter) *Buffer {
	dst := NewBuffer(recArity(t1)+recArity(t2), 0)
	TruncatedSortMergeJoinInto(dst, t1, t2, 0, 0, match, bound, meter, mpc.OpTransform)
	return dst
}

// nlj runs the truncated nested-loop join into a fresh buffer.
func nlj(t1, t2 []Record, bound int) *Buffer {
	dst := NewBuffer(recArity(t1)+recArity(t2), 0)
	TruncatedNestedLoopJoinInto(dst, t1, t2, 0, 0, nil, bound, nil, mpc.OpTransform)
	return dst
}

func TestSMJMatchesHashJoinWithLargeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 20; trial++ {
		n1, n2 := rng.Intn(30)+1, rng.Intn(30)+1
		rows1 := make([]table.Row, n1)
		rows2 := make([]table.Row, n2)
		for i := range rows1 {
			rows1[i] = table.Row{int64(rng.Intn(8)), int64(i)}
		}
		for i := range rows2 {
			rows2[i] = table.Row{int64(rng.Intn(8)), int64(100 + i)}
		}
		want := table.HashJoin(rows1, rows2, 0, 0)
		got := smj(mkRecords(rows1), mkRecords(rows2), nil, 1000, nil)
		if got.Len() != 1000*(n1+n2) {
			t.Fatalf("padded output size %d, want %d", got.Len(), 1000*(n1+n2))
		}
		if !table.MultisetEqual(realRows(got), want) {
			t.Fatalf("trial %d: SMJ real rows differ from hash join (%d vs %d)", trial, got.Real(), len(want))
		}
	}
}

func TestSMJOutputSizeDataIndependent(t *testing.T) {
	// Two inputs of identical sizes but totally different join selectivity
	// must produce identical output lengths.
	all := make([]table.Row, 10)
	none := make([]table.Row, 10)
	for i := range all {
		all[i] = table.Row{1, int64(i)}       // everything joins
		none[i] = table.Row{int64(i + 50), 0} // nothing joins
	}
	right := []table.Row{{1, 7}}
	a := smj(mkRecords(all), mkRecords(right), nil, 3, nil)
	b := smj(mkRecords(none), mkRecords(right), nil, 3, nil)
	if a.Len() != b.Len() {
		t.Errorf("output sizes %d vs %d differ with join selectivity", a.Len(), b.Len())
	}
	if a.Len() != 3*11 {
		t.Errorf("output size %d, want %d", a.Len(), 3*11)
	}
}

func TestSMJTruncationBoundsContribution(t *testing.T) {
	// One hot key on the left joining 20 right rows with bound 4: the left
	// record may contribute at most 4 entries and each right record at most
	// 4 (trivially 1 here).
	left := []table.Row{{5, 0}}
	right := make([]table.Row, 20)
	for i := range right {
		right[i] = table.Row{5, int64(i)}
	}
	got := smj(mkRecords(left), mkRecords(right), nil, 4, nil)
	if got.Real() != 4 {
		t.Errorf("hot record produced %d entries, want truncation to 4", got.Real())
	}
}

func TestSMJPerRecordContributionNeverExceedsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 10; trial++ {
		bound := rng.Intn(4) + 1
		rows1 := make([]table.Row, 25)
		rows2 := make([]table.Row, 25)
		for i := range rows1 {
			rows1[i] = table.Row{int64(rng.Intn(4)), int64(i)}
			rows2[i] = table.Row{int64(rng.Intn(4)), int64(i)}
		}
		got := smj(mkRecordsBase(rows1, 1000), mkRecordsBase(rows2, 2000), nil, bound, nil)
		perRecord := make(map[int64]int)
		for _, s := range slotsOf(got) {
			if s.real {
				perRecord[s.left]++
				perRecord[s.right]++
			}
		}
		for id, c := range perRecord {
			if c > bound {
				t.Fatalf("bound=%d: record %d contributed %d entries", bound, id, c)
			}
		}
	}
}

// TestSMJStability verifies Eq. 3: removing any single input record changes
// the real output by at most `bound` rows.
func TestSMJStability(t *testing.T) {
	rng := rand.New(rand.NewSource(10)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	bound := 3
	rows1 := make([]table.Row, 12)
	rows2 := make([]table.Row, 12)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(3)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(3)), int64(i)}
	}
	full := smj(mkRecords(rows1), mkRecords(rows2), nil, bound, nil).Real()
	for drop := 0; drop < len(rows2); drop++ {
		reduced := make([]table.Row, 0, len(rows2)-1)
		reduced = append(reduced, rows2[:drop]...)
		reduced = append(reduced, rows2[drop+1:]...)
		n := smj(mkRecords(rows1), mkRecords(reduced), nil, bound, nil).Real()
		diff := full - n
		if diff < -bound || diff > bound {
			t.Fatalf("dropping record %d changed output by %d > bound %d", drop, diff, bound)
		}
	}
}

func TestSMJMatchPredicate(t *testing.T) {
	// Temporal join: only within-10 matches survive (the Q1 shape).
	sales := []table.Row{{1, 100}, {2, 100}}
	rets := []table.Row{{1, 105}, {2, 150}}
	within10 := func(l, r Record) bool { d := r.Row[1] - l.Row[1]; return d >= 0 && d <= 10 }
	got := realRows(smj(mkRecords(sales), mkRecords(rets), within10, 5, nil))
	if len(got) != 1 {
		t.Fatalf("temporal join produced %d rows, want 1", len(got))
	}
	if got[0][0] != 1 {
		t.Errorf("wrong pair joined: %v", got[0])
	}
}

func TestSMJBoundClamped(t *testing.T) {
	got := smj(mkRecords([]table.Row{{1, 0}}), mkRecords([]table.Row{{1, 0}}), nil, 0, nil)
	if got.Len() != 2 { // bound clamps to 1, output = 1*(1+1)
		t.Errorf("output size %d with clamped bound, want 2", got.Len())
	}
}

func TestSMJChargesCosts(t *testing.T) {
	m := newMeter()
	rows := []table.Row{{1, 0}, {2, 0}, {3, 0}}
	smj(mkRecords(rows), mkRecords(rows), nil, 2, m)
	if m.Gates(mpc.OpTransform) <= 0 {
		t.Error("SMJ charged no gates")
	}
}

func TestNLJMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 10; trial++ {
		rows1 := make([]table.Row, 10)
		rows2 := make([]table.Row, 10)
		for i := range rows1 {
			rows1[i] = table.Row{int64(rng.Intn(5)), int64(i)}
			rows2[i] = table.Row{int64(rng.Intn(5)), int64(i)}
		}
		want := table.HashJoin(rows1, rows2, 0, 0)
		got := nlj(mkRecords(rows1), mkRecords(rows2), 1000)
		if !table.MultisetEqual(realRows(got), want) {
			t.Fatalf("trial %d: NLJ differs from hash join", trial)
		}
		if got.Len() != 1000*len(rows1) {
			t.Fatalf("NLJ output size %d, want %d", got.Len(), 1000*len(rows1))
		}
	}
}

func TestNLJBudgetConsumption(t *testing.T) {
	// Outer tuple with budget `bound` joining many inner rows: at most bound
	// join entries total (Alg 4:6-9).
	left := []table.Row{{5, 0}}
	right := make([]table.Row, 10)
	for i := range right {
		right[i] = table.Row{5, int64(i)}
	}
	got := nlj(mkRecords(left), mkRecords(right), 3)
	if got.Real() != 3 {
		t.Errorf("budget-3 outer produced %d joins", got.Real())
	}
	if got.Len() != 3 {
		t.Errorf("output size %d, want bound*|T1| = 3", got.Len())
	}
}

func TestNLJAgainstSMJ(t *testing.T) {
	rng := rand.New(rand.NewSource(12)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	rows1 := make([]table.Row, 8)
	rows2 := make([]table.Row, 8)
	for i := range rows1 {
		rows1[i] = table.Row{int64(rng.Intn(4)), int64(i)}
		rows2[i] = table.Row{int64(rng.Intn(4)), int64(i)}
	}
	// With a bound at least the max multiplicity both joins are untruncated
	// and must agree with each other.
	a := realRows(smj(mkRecords(rows1), mkRecords(rows2), nil, 100, nil))
	b := realRows(nlj(mkRecords(rows1), mkRecords(rows2), 100))
	if !table.MultisetEqual(a, b) {
		t.Error("SMJ and NLJ disagree at large bound")
	}
}

func TestSelect(t *testing.T) {
	src := bufferOf(1, []slot{
		{row: table.Row{1}, real: true},
		{row: table.Row{2}, real: true},
		{row: table.Row{3}, real: false},
	})
	dst := NewBuffer(1, 0)
	m := newMeter()
	SelectInto(dst, src, func(r table.Row) bool { return r[0]%2 == 1 }, m, mpc.OpQuery)
	if dst.Len() != 3 {
		t.Fatalf("selection changed array length to %d", dst.Len())
	}
	if !dst.IsReal(0) || dst.IsReal(1) || dst.IsReal(2) {
		t.Errorf("isView bits wrong: %v %v %v", dst.IsReal(0), dst.IsReal(1), dst.IsReal(2))
	}
	if dst.Real() != 1 {
		t.Errorf("real counter %d, want 1", dst.Real())
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("selection charged nothing")
	}
	// Input must be unmodified.
	if !src.IsReal(1) {
		t.Error("SelectInto mutated its input")
	}
}

func TestCount(t *testing.T) {
	b := bufferOf(1, []slot{
		{row: table.Row{1}, real: true},
		{row: table.Row{1}, real: false}, // dummy never counts
		{row: table.Row{2}, real: true},
	})
	m := newMeter()
	if got := CountBuffer(b, func(r table.Row) bool { return r[0] == 1 }, m, mpc.OpQuery); got != 1 {
		t.Errorf("CountBuffer = %d want 1", got)
	}
	if m.Gates(mpc.OpQuery) <= 0 {
		t.Error("count charged nothing")
	}
	if CountBuffer(NewBuffer(1, 0), func(table.Row) bool { return true }, nil, mpc.OpQuery) != 0 {
		t.Error("empty count wrong")
	}
}

func TestDummyShape(t *testing.T) {
	b := NewBuffer(4, 1)
	b.AppendDummy()
	d := slotsOf(b)[0]
	if d.real || !d.row.Equal(table.Row{0, 0, 0, 0}) || d.left != -1 || d.right != -1 {
		t.Errorf("dummy slot = %+v", d)
	}
	if b.Real() != 0 {
		t.Errorf("dummy counted as real")
	}
}
