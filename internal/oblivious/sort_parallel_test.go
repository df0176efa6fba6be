package oblivious

import (
	"math/rand"
	"reflect"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/table"
)

// sortZeroOne runs the raw Batcher network over a 0/1 slice.
func sortZeroOne(bits []int) {
	batcherNetwork(len(bits), func(i, j int) {
		if bits[i] > bits[j] {
			bits[i], bits[j] = bits[j], bits[i]
		}
	})
}

func isSortedZeroOne(bits []int) bool {
	for i := 1; i < len(bits); i++ {
		if bits[i] < bits[i-1] {
			return false
		}
	}
	return true
}

// TestBatcherZeroOnePrinciple: a comparator network sorts every input iff it
// sorts every 0/1 input (the 0-1 principle), so checking all 2^n bit
// vectors proves the skipped-comparator construction correct at
// non-power-of-two sizes. Exhaustive through n=16; beyond that every
// threshold pattern, every single-bit pattern, and seeded random vectors.
func TestBatcherZeroOnePrinciple(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			bits := make([]int, n)
			for i := range bits {
				bits[i] = (mask >> i) & 1
			}
			sortZeroOne(bits)
			if !isSortedZeroOne(bits) {
				t.Fatalf("n=%d mask=%b: network failed to sort", n, mask)
			}
		}
	}
	rng := rand.New(rand.NewSource(41)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for n := 17; n <= 64; n++ {
		var cases [][]int
		for k := 0; k <= n; k++ { // threshold inputs: k ones then zeros
			bits := make([]int, n)
			for i := 0; i < k; i++ {
				bits[i] = 1
			}
			cases = append(cases, bits)
		}
		for k := 0; k < n; k++ { // single-bit inputs
			bits := make([]int, n)
			bits[k] = 1
			cases = append(cases, bits)
		}
		for trial := 0; trial < 200; trial++ {
			bits := make([]int, n)
			for i := range bits {
				bits[i] = rng.Intn(2)
			}
			cases = append(cases, bits)
		}
		for ci, bits := range cases {
			in := append([]int(nil), bits...)
			sortZeroOne(bits)
			if !isSortedZeroOne(bits) {
				t.Fatalf("n=%d case=%d input=%v: network failed to sort", n, ci, in)
			}
		}
	}
}

// TestCachedReplayMatchesFreshEnumeration: the memoized pair list must
// replay comparators in exactly batcherNetwork's order — the leakage
// transcript and the sorted result depend on it — both on the cold path
// that records the cache entry and on the warm path that replays it.
func TestCachedReplayMatchesFreshEnumeration(t *testing.T) {
	const n = 37 // uncommon non-power-of-two size
	var want [][2]int
	batcherNetwork(n, func(i, j int) { want = append(want, [2]int{i, j}) })
	for pass := 0; pass < 2; pass++ { // cold (records), then warm (replays)
		var got [][2]int
		forEachComparator(n, func(i, j int) { got = append(got, [2]int{i, j}) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached replay diverges from fresh enumeration (%d vs %d comparators)",
				pass, len(got), len(want))
		}
	}
	// The layer marks must partition the pair list exactly.
	net := loadNetwork(n)
	if len(net.layers) == 0 || int(net.layers[len(net.layers)-1]) != len(net.pairs) {
		t.Fatalf("layer offsets %v do not partition %d pairs", net.layers, len(net.pairs))
	}
	for i := 1; i < len(net.layers); i++ {
		if net.layers[i] < net.layers[i-1] {
			t.Fatalf("layer offsets not ascending: %v", net.layers)
		}
	}
}

// TestLayersAreDisjoint: within one (p,k) layer no index may appear twice —
// the property that makes executing a layer's swaps concurrently safe and
// order-independent.
func TestLayersAreDisjoint(t *testing.T) {
	for _, n := range []int{2, 7, 64, 640, 1088, 5000} {
		seen := map[int]bool{}
		batcherNetworkLayered(n, func(i, j int) {
			if seen[i] || seen[j] {
				t.Fatalf("n=%d: index reused within a layer (pair %d,%d)", n, i, j)
			}
			seen[i], seen[j] = true, true
		}, func() {
			clear(seen)
		})
	}
}

func sortedAtWorkers(t *testing.T, workers, n int, seed int64) []slot {
	t.Helper()
	SetSortWorkers(workers)
	defer SetSortWorkers(1)
	rng := rand.New(rand.NewSource(seed)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	ss := make([]slot, n)
	for i := range ss {
		ss[i] = slot{row: table.Row{int64(rng.Intn(50)), int64(i)}, real: rng.Intn(2) == 0, left: int64(i)}
	}
	b := bufferOf(2, ss)
	SortBuffer(b, byKey, nil, mpc.OpOther, 64)
	return slotsOf(b)
}

// TestSortWorkersDeterminism: the sorted output must be byte-identical at
// every worker count, on both the cached parallel path (n within the
// network cache bound) and the streaming path (n beyond it). Run under
// -race in CI, this also proves the layer-parallel swaps race-free.
func TestSortWorkersDeterminism(t *testing.T) {
	for _, n := range []int{parallelSortMinN + 904, networkCacheMaxN + 808} {
		serial := sortedAtWorkers(t, 1, n, 77)
		for _, workers := range []int{2, 4, 7} {
			parallel := sortedAtWorkers(t, workers, n, 77)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("n=%d: workers=%d output differs from serial", n, workers)
			}
		}
	}
}

// TestSortBufferWorkersDeterminism covers the columnar path (SortBuffer's
// permutation sort plus gather), which shares forEachComparator.
func TestSortBufferWorkersDeterminism(t *testing.T) {
	build := func() *Buffer {
		rng := rand.New(rand.NewSource(99)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
		b := NewBuffer(2, 0)
		for i := 0; i < parallelSortMinN+300; i++ {
			b.AppendSlot(table.Row{int64(rng.Intn(64)), int64(i)}, rng.Intn(2) == 0, 0, 0)
		}
		return b
	}
	SetSortWorkers(1)
	serial := build()
	SortBuffer(serial, ByColumnAt(0, 1), nil, mpc.OpOther, 64)
	SetSortWorkers(4)
	defer SetSortWorkers(1)
	parallel := build()
	SortBuffer(parallel, ByColumnAt(0, 1), nil, mpc.OpOther, 64)
	if serial.Len() != parallel.Len() {
		t.Fatalf("length mismatch: %d vs %d", serial.Len(), parallel.Len())
	}
	for i := 0; i < serial.Len(); i++ {
		if !reflect.DeepEqual(serial.Row(i), parallel.Row(i)) || serial.IsReal(i) != parallel.IsReal(i) {
			t.Fatalf("row %d differs between workers=1 and workers=4", i)
		}
	}
}

// TestParallelPathEngages: with workers > 1 a big sort must actually take
// the parallel path (the stats the obs gauges export move), and small sorts
// must stay serial regardless of the setting.
func TestParallelPathEngages(t *testing.T) {
	SetSortWorkers(4)
	defer SetSortWorkers(1)
	s0, l0 := ParallelSortStats()
	sortedAtWorkers(t, 4, parallelSortMinN, 5)
	s1, l1 := ParallelSortStats()
	if s1 <= s0 || l1 <= l0 {
		t.Fatalf("parallel stats did not move: sorts %d->%d layers %d->%d", s0, s1, l0, l1)
	}
	sortedAtWorkers(t, 4, parallelSortMinN-1, 5)
	s2, _ := ParallelSortStats()
	if s2 != s1 {
		t.Fatalf("sort below the cutoff took the parallel path")
	}
}

// TestCacheStatsMove: the comparator-cache counters behind the
// incshrink_core_comparator_cache_* gauges must account a miss on first
// use of a size and a hit on reuse. (The cache is process-global and tests
// may repeat with -count, so the first observation adapts to whether the
// size is already retained.)
func TestCacheStatsMove(t *testing.T) {
	const n = 1531 // unlikely to be used by any other test
	_, cached := cachedNetworks()[n]
	h0, m0, _, p0 := CacheStats()
	forEachComparator(n, func(i, j int) {})
	h1, m1, _, p1 := CacheStats()
	if cached {
		if h1 != h0+1 || m1 != m0 {
			t.Fatalf("replay of retained n=%d: hits %d -> %d misses %d -> %d, want hit +1", n, h0, h1, m0, m1)
		}
	} else {
		if m1 != m0+1 {
			t.Fatalf("first enumeration of n=%d: misses %d -> %d, want +1", n, m0, m1)
		}
		if p1 <= p0 {
			t.Fatalf("retained pairs did not grow: %d -> %d", p0, p1)
		}
	}
	forEachComparator(n, func(i, j int) {})
	h2, m2, _, _ := CacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("replay of n=%d: hits %d -> %d misses %d -> %d, want hit +1", n, h1, h2, m1, m2)
	}
}

// TestSortWorkersSetting: 0 resolves to GOMAXPROCS and explicit values are
// kept verbatim.
func TestSortWorkersSetting(t *testing.T) {
	defer SetSortWorkers(1)
	SetSortWorkers(3)
	if got := SortWorkersSetting(); got != 3 {
		t.Fatalf("SortWorkersSetting() = %d, want 3", got)
	}
	SetSortWorkers(0)
	if got := SortWorkersSetting(); got < 1 {
		t.Fatalf("SetSortWorkers(0) resolved to %d, want >= 1", got)
	}
}
