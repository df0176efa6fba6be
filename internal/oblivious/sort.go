// Package oblivious implements the data-independent ("oblivious") operators
// IncShrink compiles into its MPC protocols: Batcher's odd-even merge
// sorting network (the ObliSort of Algorithms 2 and 3, citing Batcher [5]),
// oblivious selection (Appendix A.1.1), the b-truncated oblivious sort-merge
// join of Example 5.1, and the truncated oblivious nested-loop join of
// Algorithm 4.
//
// Every operator works on one representation of a padded secure array: the
// columnar Buffer (buffer.go). This file holds the sorting network itself —
// its enumeration, the per-length comparator cache, and the layer-parallel
// executor — which SortBuffer and the joins drive.
//
// Obliviousness here means the sequence of memory touches and
// compare-exchange positions depends only on input *sizes*, never on
// values. The simulator executes the operators over plaintext (the secrets
// are notional shares), but the control flow is the real network, the
// compare-exchange count is charged to the MPC cost meter, and tests assert
// the access pattern is identical across inputs of equal size.
package oblivious

import (
	"sync"
	"sync/atomic"

	"incshrink/internal/runner"
)

// sortNetwork is one memoized enumeration of Batcher's network: the
// comparator pairs flattened as (i0,j0,i1,j1,...) plus the end offset (into
// pairs) of every (p,k) layer. Within a layer every comparator touches a
// disjoint index pair — for fixed k the low ends cover [j, j+k) and the high
// ends [j+k, j+2k) with j stepping by 2k — so a layer's compare-exchanges
// commute and may execute concurrently; only the layer boundaries order.
type sortNetwork struct {
	pairs  []int32
	layers []int32 // end offsets into pairs, one per (p,k) layer, ascending
}

// networkCache memoizes the comparator list of Batcher's network per input
// length. The network is a pure function of n, and the engine sorts the
// same few padded sizes over and over (every Transform of a deployment
// sorts identically sized arrays — in a batched ingest run, once per step),
// so replaying a flat pair list replaces the four nested loops and the
// per-comparator index arithmetic of the enumeration on every sort after
// the first. The cache is a copy-on-write map — reads are one atomic load
// and a plain int-keyed map index, which stays off the allocator on the hot
// path (a sync.Map would box the int key on every lookup); inserts are rare
// (one per distinct size, ever) and copy the map under a mutex. It is
// bounded two ways: lengths above networkCacheMaxN are never cached
// (O(n log^2 n) pairs for rare one-off sizes), and the total retained pairs
// across all lengths are capped by networkCachePairBudget — important in
// the multi-tenant server, where sort sizes derive from client-chosen
// deployments and an adversarial mix of block sizes must not grow resident
// memory without bound. Beyond the budget, sorts fall back to direct
// enumeration.
var (
	networkCache      atomic.Value // map[int]*sortNetwork, copy-on-write
	networkCacheMu    sync.Mutex   // serializes map copies on insert
	networkCachePairs atomic.Int64 // pairs currently retained across all entries

	// Cache accounting, exported through CacheStats for the
	// incshrink_core_comparator_cache_* metric families: hits replayed a
	// retained network, misses enumerated one, evictions enumerated one and
	// could not retain it (pair budget exhausted, or an oversized length).
	networkCacheHits      atomic.Int64
	networkCacheMisses    atomic.Int64
	networkCacheEvictions atomic.Int64
)

const (
	networkCacheMaxN       = 1 << 13
	networkCachePairBudget = 4 << 20 // ~32 MiB of int32 pairs total
)

// CacheStats reports the network cache's lifetime hit/miss/eviction counts
// and the pairs currently retained (against networkCachePairBudget). It is
// the data source of the incshrink_core_comparator_cache_* families.
func CacheStats() (hits, misses, evictions, pairs int64) {
	return networkCacheHits.Load(), networkCacheMisses.Load(),
		networkCacheEvictions.Load(), networkCachePairs.Load()
}

// sortWorkers bounds the goroutines executing one sort's compare-exchange
// layers. 1 (the default) runs every sort serially — byte-identical to the
// pre-parallel code by construction; higher values split large layers
// across that many goroutines. Because comparators within a layer touch
// disjoint index pairs, the result is identical at every setting; tests pin
// workers=1 vs N determinism and the race detector covers the swap path.
var sortWorkers atomic.Int32

func init() { sortWorkers.Store(1) }

// SetSortWorkers sets the process-wide sort parallelism; n <= 0 resolves to
// GOMAXPROCS (runner.Workers). The -sort-workers flags of incshrink-server
// and incshrink-bench land here.
func SetSortWorkers(n int) { sortWorkers.Store(int32(runner.Workers(n))) }

// SortWorkersSetting returns the current sort parallelism bound.
func SortWorkersSetting() int { return int(sortWorkers.Load()) }

const (
	// parallelSortMinN is the smallest network that may parallelize at all:
	// below it even the widest layer cannot amortize a goroutine handoff.
	parallelSortMinN = 2048
	// parallelLayerMinPairs is the minimum comparators one goroutine must
	// receive; layers that cannot feed every worker that much shrink their
	// worker count (runner.Split), down to running inline.
	parallelLayerMinPairs = 512
)

// Parallel-execution accounting, exported through ParallelSortStats for the
// incshrink_core_sort_parallel_* metric families.
var (
	parallelSortsRun  atomic.Int64
	parallelLayersRun atomic.Int64
)

// ParallelSortStats reports how many sorts took the parallel path and how
// many individual layers were actually executed across multiple goroutines.
func ParallelSortStats() (sorts, layers int64) {
	return parallelSortsRun.Load(), parallelLayersRun.Load()
}

// parallelEligible reports whether a sort of n elements may take the
// layer-parallel executor. Callers branch on it BEFORE building their
// cmpSwap closure: the serial executor never leaks its parameter, so serial
// closures stay stack-allocated and the steady-state sort path stays off
// the allocator entirely.
func parallelEligible(n int) bool {
	return n >= parallelSortMinN && sortWorkers.Load() > 1
}

// forEachComparator invokes cmpSwap over the comparators of the n-element
// network in exactly batcherNetwork's order (a cached list is recorded
// from one enumeration, so the access pattern — and therefore the sort
// order and the leakage transcript — is identical on both paths). This is
// the serial executor; it never retains cmpSwap.
func forEachComparator(n int, cmpSwap func(i, j int)) {
	if n > networkCacheMaxN {
		networkCacheEvictions.Add(1)
		batcherNetwork(n, cmpSwap)
		return
	}
	pairs := loadNetwork(n).pairs
	for k := 0; k < len(pairs); k += 2 {
		cmpSwap(int(pairs[k]), int(pairs[k+1]))
	}
}

// forEachComparatorParallel executes the same comparator sequence with each
// (p,k) layer's disjoint compare-exchanges spread across the configured
// worker pool. Layer boundaries are barriers and comparators within a layer
// touch disjoint index pairs, so the outcome is byte-identical to
// forEachComparator at any worker count. Only call when parallelEligible.
func forEachComparatorParallel(n int, cmpSwap func(i, j int)) {
	workers := int(sortWorkers.Load())
	parallelSortsRun.Add(1)
	if n > networkCacheMaxN {
		networkCacheEvictions.Add(1)
		forEachComparatorStreaming(n, workers, cmpSwap)
		return
	}
	net := loadNetwork(n)
	start := 0
	for _, end := range net.layers {
		runLayer(net.pairs[start:int(end)], workers, cmpSwap)
		start = int(end)
	}
}

// cachedNetworks reads the current copy-on-write cache map (nil before the
// first insert).
func cachedNetworks() map[int]*sortNetwork {
	m, _ := networkCache.Load().(map[int]*sortNetwork)
	return m
}

// loadNetwork returns the memoized network for n, enumerating (and retaining,
// budget permitting) it on first use.
func loadNetwork(n int) *sortNetwork {
	if net, ok := cachedNetworks()[n]; ok {
		networkCacheHits.Add(1)
		return net
	}
	networkCacheMisses.Add(1)
	net := &sortNetwork{}
	batcherNetworkLayered(n, func(i, j int) {
		net.pairs = append(net.pairs, int32(i), int32(j))
	}, func() {
		net.layers = append(net.layers, int32(len(net.pairs)))
	})
	nPairs := int64(len(net.pairs) / 2)
	if networkCachePairs.Add(nPairs) <= networkCachePairBudget {
		networkCacheMu.Lock()
		old := cachedNetworks()
		if _, loaded := old[n]; loaded {
			networkCachePairs.Add(-nPairs) // lost the race: not retained
		} else {
			next := make(map[int]*sortNetwork, len(old)+1)
			for k, v := range old {
				next[k] = v
			}
			next[n] = net
			networkCache.Store(next)
		}
		networkCacheMu.Unlock()
	} else {
		networkCachePairs.Add(-nPairs) // budget exhausted: don't retain
		networkCacheEvictions.Add(1)
	}
	return net
}

// runLayer executes one layer's compare-exchanges, splitting them across up
// to `workers` goroutines when the layer is wide enough (runner.Split's
// chunking rule). All pairs in a layer are index-disjoint, so the chunks
// race on nothing and the layer's outcome is order-independent.
func runLayer(pairs []int32, workers int, cmpSwap func(i, j int)) {
	nPairs := len(pairs) / 2
	chunks := runner.Split(nPairs, workers, parallelLayerMinPairs)
	if chunks <= 1 {
		for k := 0; k < len(pairs); k += 2 {
			cmpSwap(int(pairs[k]), int(pairs[k+1]))
		}
		return
	}
	parallelLayersRun.Add(1)
	per := (nPairs + chunks - 1) / chunks
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * per
		if lo >= nPairs {
			break
		}
		hi := lo + per
		if hi > nPairs {
			hi = nPairs
		}
		seg := pairs[lo*2 : hi*2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < len(seg); k += 2 {
				cmpSwap(int(seg[k]), int(seg[k+1]))
			}
		}()
	}
	wg.Wait()
}

// pairScratchPool recycles the per-layer pair accumulator of the streaming
// (uncached, over-budget-length) parallel path.
var pairScratchPool = sync.Pool{New: func() any { s := make([]int32, 0, 4096); return &s }}

// forEachComparatorStreaming parallelizes a network too large for the cache:
// each layer's pairs are accumulated into a reusable scratch list and
// executed with runLayer before the next layer is enumerated. runLayer joins
// its goroutines before returning, so the scratch never escapes the call.
func forEachComparatorStreaming(n, workers int, cmpSwap func(i, j int)) {
	pp := pairScratchPool.Get().(*[]int32)
	scratch := (*pp)[:0]
	batcherNetworkLayered(n, func(i, j int) {
		scratch = append(scratch, int32(i), int32(j))
	}, func() {
		runLayer(scratch, workers, cmpSwap)
		scratch = scratch[:0]
	})
	*pp = scratch[:0]
	pairScratchPool.Put(pp)
}

// batcherNetwork enumerates the comparators of Batcher's odd-even merge
// sorting network for n elements, invoking cmpSwap(i, j) with i < j for each
// one. The enumeration is the standard iterative network on the
// next-power-of-two index range; comparators touching indices >= n are
// skipped consistently for every input of this length, so the pattern stays
// data-independent.
func batcherNetwork(n int, cmpSwap func(i, j int)) {
	batcherNetworkLayered(n, cmpSwap, nil)
}

// batcherNetworkLayered is batcherNetwork with a layer callback: layerEnd
// (when non-nil) is invoked after the comparators of each (p,k) pass, whose
// index pairs are mutually disjoint. The comparator order is identical to
// batcherNetwork's — the layer marks only annotate it.
func batcherNetworkLayered(n int, cmpSwap func(i, j int), layerEnd func()) {
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j <= p2-1-k; j += 2 * k {
				for i := 0; i <= k-1; i++ {
					a, b := i+j, i+j+k
					if a/(p*2) != b/(p*2) {
						continue
					}
					if b >= n {
						continue
					}
					cmpSwap(a, b)
				}
			}
			if layerEnd != nil {
				layerEnd()
			}
		}
	}
}
