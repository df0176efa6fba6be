package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// dist is a latency sample in seconds. Percentiles are nearest-rank on a
// sorted copy, the same rule serve.RunLoad uses for BENCH_serve.json.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for an
// empty sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return rank(d.sorted(), q)
}

func rank(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the highest of p50, p90, p99, p99.9 and p99.99 that still
// has at least ten samples beyond it — the tail the sample supports.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// summary renders a sample as "n=… p50=… p<tail>=…" in milliseconds for the
// human-readable report lines.
func (d dist) summary() string {
	if len(d) == 0 {
		return "n=0"
	}
	s := d.sorted()
	tq := tailQuantile(len(s))
	return fmt.Sprintf("n=%d p50=%.4fms p%s=%.4fms max=%.4fms",
		len(s), 1e3*rank(s, 0.5), trimPct(tq), 1e3*rank(s, tq), 1e3*s[len(s)-1])
}

func trimPct(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e4)/1e2)
}

func median(xs []float64) float64 { return dist(xs).quantile(0.5) }

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// minBlock is the smallest block blockQuantile takes a quantile over: a
// p99 of a thousand samples still has ten beyond it.
const minBlock = 1000

// blockQuantile splits a time-ordered sample into consecutive blocks of
// at least minBlock samples and returns the median of the blocks'
// q-quantiles. A burst of outside load that lands in one block moves the
// result no more than any other block does, which keeps run-to-run spread
// down on a shared machine; with fewer than two blocks it is the plain
// quantile.
func blockQuantile(s dist, q float64) float64 {
	n := len(s) / minBlock
	if n < 2 {
		return s.quantile(q)
	}
	qs := make([]float64, n)
	for b := range qs {
		qs[b] = s[b*len(s)/n : (b+1)*len(s)/n].quantile(q)
	}
	return median(qs)
}
