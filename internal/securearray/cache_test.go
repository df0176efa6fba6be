package securearray

import (
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/table"
)

// batch builds an arity-2 padded batch of n slots with real tuples
// {i, 1} at random positions.
func batch(rng *rand.Rand, n, real int) *oblivious.Buffer {
	rank := make([]int, n) // rank of the real tuple in each slot, -1 for dummies
	for i := range rank {
		rank[i] = -1
	}
	perm := rng.Perm(n)
	for i := 0; i < real; i++ {
		rank[perm[i]] = i
	}
	b := oblivious.NewBuffer(2, n)
	for _, r := range rank {
		if r < 0 {
			b.AppendDummy()
		} else {
			b.AppendRow(table.Row{int64(r), 1}, -1, -1)
		}
	}
	return b
}

// realRows extracts the rows of b's real slots.
func realRows(b *oblivious.Buffer) []table.Row {
	var out []table.Row
	for i := 0; i < b.Len(); i++ {
		if b.IsReal(i) {
			out = append(out, b.Row(i).Clone())
		}
	}
	return out
}

// newCache builds an arity-2 cache like the test batches.
func newCache(tupleBits int, m *mpc.Meter) *Cache { return New(2, tupleBits, m) }

func TestCacheAppendAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 10, 3))
	c.Append(batch(rng, 10, 5))
	if c.Len() != 20 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Real() != 8 {
		t.Errorf("Real = %d", c.Real())
	}
	if c.MaxLen() != 20 {
		t.Errorf("MaxLen = %d", c.MaxLen())
	}
	a, r, f := c.Stats()
	if a != 2 || r != 0 || f != 0 {
		t.Errorf("stats = %d %d %d", a, r, f)
	}
}

func TestCacheReadFetchesRealFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(2)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 30, 12))
	got := c.Read(12)
	defer got.Release()
	if got.Len() != 12 || got.Real() != 12 {
		t.Errorf("read %d slots, %d real; want 12 real", got.Len(), got.Real())
	}
	if c.Real() != 0 {
		t.Errorf("cache still holds %d real after exact read", c.Real())
	}
	if c.Len() != 18 {
		t.Errorf("cache len %d after read, want 18", c.Len())
	}
}

func TestCacheReadOverAndUnderSized(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 10, 4))
	// Positive noise: fetch more than real count -> dummies included.
	got := c.Read(7)
	if got.Len() != 7 || got.Real() != 4 {
		t.Errorf("oversized read: %d slots %d real", got.Len(), got.Real())
	}
	got.Release()
	// Negative noise: fetch fewer than real -> deferred data remains.
	c2 := newCache(128, nil)
	c2.Append(batch(rng, 10, 4))
	got = c2.Read(2)
	if got.Real() != 2 || c2.Real() != 2 {
		t.Errorf("undersized read: fetched %d real, cache keeps %d", got.Real(), c2.Real())
	}
	got.Release()
	// Read larger than cache clamps.
	got = c2.Read(100)
	if got.Len() != 8 {
		t.Errorf("clamped read returned %d slots, want remaining 8", got.Len())
	}
	got.Release()
	if c2.Len() != 0 {
		t.Error("cache should be empty after clamped full read")
	}
}

func TestCacheReadChargesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	m := mpc.NewMeter(mpc.DefaultCostModel())
	c := newCache(256, m)
	c.Append(batch(rng, 16, 5))
	c.Read(5).Release()
	want := float64(mpc.SortCompareExchanges(16)) * 256 * m.Model().ANDGatesPerCompareExchangeBit
	if got := m.Gates(mpc.OpShrink); got != want {
		t.Errorf("read charged %v gates, want %v", got, want)
	}
}

func TestCacheFlushInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	c.Append(batch(rng, 50, 6))
	fetched, lost := c.FlushInto(v, 10)
	if fetched != 10 || v.Len() != 10 {
		t.Errorf("flush fetched %d (view len %d), want 10", fetched, v.Len())
	}
	if v.Real() != 6 {
		t.Errorf("flush fetched %d real, want all 6", v.Real())
	}
	if lost != 0 {
		t.Errorf("flush lost %d real tuples, want 0", lost)
	}
	if c.Len() != 0 {
		t.Error("flush must empty the cache")
	}
	_, _, f := c.Stats()
	if f != 1 {
		t.Errorf("flush counter = %d", f)
	}
	if v.Updates() != 1 {
		t.Errorf("view updates = %d, want 1", v.Updates())
	}
}

func TestCacheFlushReportsLostReal(t *testing.T) {
	rng := rand.New(rand.NewSource(6)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 20, 9))
	_, lost := c.FlushInto(NewView(2), 5) // undersized flush: 4 real recycled
	if lost != 4 {
		t.Errorf("lost = %d, want 4", lost)
	}
}

// TestCacheAppendIsCopy: Append copies the batch into the cache arena, so
// the caller may reuse or mutate its batch afterwards.
func TestCacheAppendIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	b := batch(rng, 5, 2)
	c.Append(b)
	before := c.Buffer().IsReal(0)
	b.SetReal(0, !b.IsReal(0))
	b.Payload().Set(0, 0, 99)
	if c.Buffer().IsReal(0) != before || c.Buffer().At(0, 0) == 99 {
		t.Error("cache shares storage with the appended batch")
	}
	if c.Real() != 2 {
		t.Errorf("cache real = %d after mutating the batch, want 2", c.Real())
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestViewAppendOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	v := NewView(2)
	v.Update(batch(rng, 10, 4))
	v.Update(batch(rng, 5, 5))
	if v.Len() != 15 || v.Real() != 9 || v.Updates() != 2 {
		t.Errorf("view len=%d real=%d updates=%d", v.Len(), v.Real(), v.Updates())
	}
	if v.Buffer().Len() != 15 {
		t.Error("Buffer length wrong")
	}
}

func TestViewSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	v := NewView(2)
	v.Update(batch(rng, 8, 2))
	if got := v.SizeBytes(256); got != 8*256/8 {
		t.Errorf("SizeBytes = %d", got)
	}
}

// TestReadPreservesMultiset: read + remainder must hold exactly the original
// real tuples (no tuple is lost or duplicated by the oblivious machinery).
func TestReadPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(10)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	b := batch(rng, 40, 17)
	orig := realRows(b)
	c.Append(b)
	got := c.Read(9)
	defer got.Release()
	combined := append(realRows(got), realRows(c.Buffer())...)
	if !table.MultisetEqual(combined, orig) {
		t.Error("read split changed the multiset of real tuples")
	}
}

// TestCountersPinnedToScan drives a random operation mix over a cache and a
// view and pins the incrementally maintained real-tuple counters against a
// full recount after every operation — the satellite invariant behind the
// O(1) Real() on the serving read path.
func TestCountersPinnedToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	check := func(op string) {
		t.Helper()
		if c.Real() != c.ScanReal() {
			t.Fatalf("after %s: cache counter %d != scan %d", op, c.Real(), c.ScanReal())
		}
		if v.Real() != v.ScanReal() {
			t.Fatalf("after %s: view counter %d != scan %d", op, v.Real(), v.ScanReal())
		}
	}
	for i := 0; i < 300; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			n := 1 + rng.Intn(20)
			c.Append(batch(rng, n, rng.Intn(n+1)))
			check("append")
		case 2:
			c.ReadInto(v, rng.Intn(c.Len()+3)-1)
			check("readInto")
		case 3:
			_, _ = c.FlushInto(v, rng.Intn(c.Len()+3)-1)
			check("flushInto")
		case 4:
			c.ReadAndPruneInto(v, rng.Intn(c.Len()+2), rng.Intn(4), rng.Intn(15))
			check("readAndPruneInto")
		case 5:
			c.Prune(rng.Intn(c.Len() + 2))
			check("prune")
		}
	}
}

// TestCacheSteadyStateAllocs pins the pooled data plane: appending a warm
// batch and reading it back must not allocate per slot (small constant
// per-op allocations only, from pool churn at worst).
func TestCacheSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	src := batch(rng, 256, 40)
	// Warm up: grow the cache and view arenas to their steady-state sizes.
	for i := 0; i < 4; i++ {
		c.Append(src)
		c.ReadAndPruneInto(v, 40, 4, 128)
	}
	grown := v.Len() // pre-grow the view past what the measured runs add
	v.Buffer().Grow(grown * 64)
	avg := testing.AllocsPerRun(50, func() {
		c.Append(src)
		c.ReadAndPruneInto(v, 40, 4, 128)
	})
	if avg > 4 {
		t.Errorf("steady-state Append+ReadAndPruneInto allocates %.1f/op, want <= 4", avg)
	}
}

func BenchmarkCacheAppend256(b *testing.B) {
	rng := rand.New(rand.NewSource(98)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(256, nil)
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append(src)
		if c.Len() >= 1<<16 {
			b.StopTimer()
			c.Prune(0)
			b.StartTimer()
		}
	}
}

func BenchmarkCacheRead256(b *testing.B) {
	rng := rand.New(rand.NewSource(99)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(256, nil)
	v := NewView(2)
	src := batch(rng, 256, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.Prune(0)
		c.Append(src)
		if v.Len() > 1<<20 {
			v = NewView(2)
		}
		b.StartTimer()
		c.ReadInto(v, 40)
	}
}
