// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating the same rows/series; see
// internal/experiments), plus the ablation benches called out in DESIGN.md
// section 5. Custom b.ReportMetric values surface the *shape* quantities —
// improvement factors, error levels, cache growth — alongside the wall-clock
// cost of the simulation itself.
package incshrink

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"incshrink/internal/core"
	"incshrink/internal/dp"
	"incshrink/internal/experiments"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/sim"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// benchParams keeps each benchmark iteration laptop-cheap while preserving
// the paper's shapes; run cmd/incshrink-bench -steps 1825 for the full span.
var benchParams = experiments.Params{Steps: 120, Seed: 2022}

// BenchmarkTable2 regenerates the aggregated comparison statistics (Table 2)
// and reports the headline shape metrics for DP-Timer on TPC-ds. Caches are
// dropped every iteration so the full simulation cost is measured.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		rows, err = experiments.Table2(context.Background(), benchParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Candidate == "DP-Timer" && r.Dataset == "TPC-ds" {
			b.ReportMetric(r.ImpOverNM, "impQET/NM")
			b.ReportMetric(r.AvgL1, "avgL1")
		}
	}
}

func benchFigure(b *testing.B, f func(context.Context, experiments.Params) ([]experiments.Figure, error)) {
	b.Helper()
	var figs []experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		figs, err = f(context.Background(), benchParams)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(figs)), "panels")
}

// BenchmarkFigure4 regenerates the end-to-end accuracy/efficiency scatter.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }

// BenchmarkFigure5 regenerates the epsilon sweep (3-way trade-off).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates the Sparse/Standard/Burst comparison.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates the T/theta sweep at three privacy levels.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates the truncation-bound study on CPDB.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates the data-scaling study.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationNoiseJoint measures the joint fixed-point Laplace sampler
// of Algorithm 2 (two 32-bit words, inversion) and reports its empirical
// scale error against the analytic Laplace median, versus the float64
// baseline sampler below.
func BenchmarkAblationNoiseJoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	abs := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		v := dp.LaplaceFromWords(1.0, rng.Uint32(), rng.Uint32())
		abs = append(abs, math.Abs(v))
	}
	if len(abs) > 100 {
		sort.Float64s(abs)
		med := abs[len(abs)/2]
		b.ReportMetric(math.Abs(med-math.Ln2)/math.Ln2, "medianErr")
	}
}

// BenchmarkAblationNoiseFloat is the ideal float64 inversion sampler: the
// comparison point showing the 32-bit fixed-point discretization costs
// nothing measurable in distribution quality.
func BenchmarkAblationNoiseFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	abs := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		u := rng.Float64()
		v := math.Log(u)
		if rng.Intn(2) == 0 {
			v = -v
		}
		abs = append(abs, math.Abs(v))
	}
	if len(abs) > 100 {
		sort.Float64s(abs)
		med := abs[len(abs)/2]
		b.ReportMetric(math.Abs(med-math.Ln2)/math.Ln2, "medianErr")
	}
}

// runCacheAblation runs DP-Timer on TPC-ds with or without the incremental
// Theorem-4 prune and reports the cache high-water mark and the simulated
// Shrink cost: the trade-off the prune design buys.
func runCacheAblation(b *testing.B, prune bool) {
	b.Helper()
	wl := workload.TPCDS(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(wl, benchParams.Seed)
		cfg.T = 10
		if !prune {
			cfg.PruneTo = 0
			cfg.FlushEvery = 50 // the literal-paper flush, scaled to horizon
			cfg.FlushSize = 15
		}
		e, err := core.NewTimerEngine(cfg, wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range tr.Steps {
			e.Step(st)
		}
		m = e.Metrics()
	}
	b.ReportMetric(float64(m.CacheMax), "cacheMax")
	b.ReportMetric(m.ShrinkSecs, "simShrinkSecs")
	b.ReportMetric(float64(m.LostReal), "lostReal")
}

// BenchmarkAblationFlushPrune measures the incremental Theorem-4 prune.
func BenchmarkAblationFlushPrune(b *testing.B) { runCacheAblation(b, true) }

// BenchmarkAblationFlushPaper measures the literal periodic flush instead:
// the cache grows between flushes and the Shrink sorts get expensive.
func BenchmarkAblationFlushPaper(b *testing.B) { runCacheAblation(b, false) }

// BenchmarkAblationTruncateSMJ measures the truncated sort-merge join of
// Example 5.1 and reports its simulated gate cost.
func BenchmarkAblationTruncateSMJ(b *testing.B) {
	t1, t2 := ablationTables(128)
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	dst := oblivious.GetBuffer(4)
	defer dst.Release()
	for i := 0; i < b.N; i++ {
		meter.Reset()
		dst.Reset()
		oblivious.TruncatedSortMergeJoinInto(dst, t1, t2, 0, 0, nil, 4, meter, mpc.OpTransform)
	}
	b.ReportMetric(meter.TotalGates(), "simGates")
}

// BenchmarkAblationTruncateNLJ measures the truncated nested-loop join of
// Algorithm 4 on the same input: quadratic equality tests plus per-outer
// sorts make it far more expensive in simulated gates.
func BenchmarkAblationTruncateNLJ(b *testing.B) {
	t1, t2 := ablationTables(128)
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	dst := oblivious.GetBuffer(4)
	defer dst.Release()
	for i := 0; i < b.N; i++ {
		meter.Reset()
		dst.Reset()
		oblivious.TruncatedNestedLoopJoinInto(dst, t1, t2, 0, 0, nil, 4, meter, mpc.OpTransform)
	}
	b.ReportMetric(meter.TotalGates(), "simGates")
}

func ablationTables(n int) (t1, t2 []oblivious.Record) {
	rng := rand.New(rand.NewSource(7)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for i := 0; i < n; i++ {
		t1 = append(t1, oblivious.Record{ID: int64(i), Row: table.Row{int64(rng.Intn(n / 4)), int64(i)}})
		t2 = append(t2, oblivious.Record{ID: int64(n + i), Row: table.Row{int64(rng.Intn(n / 4)), int64(i)}})
	}
	return t1, t2
}

// BenchmarkAblationSortBatcher measures the oblivious Batcher network against
// BenchmarkAblationSortStdlib (non-oblivious) on the same input: the price of
// data-independence in real CPU terms.
func BenchmarkAblationSortBatcher(b *testing.B) {
	base := ablationBuffer(1024)
	work := oblivious.NewBuffer(1, base.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Reset()
		work.AppendAll(base)
		oblivious.SortBuffer(work, oblivious.ByIsViewFirstAt, nil, mpc.OpOther, 64)
	}
}

// BenchmarkAblationSortStdlib is the comparison point for the sort ablation:
// the same real-first order over the same slots with sort.SliceStable.
func BenchmarkAblationSortStdlib(b *testing.B) {
	base := ablationBuffer(1024)
	work := oblivious.NewBuffer(1, base.Len())
	perm := make([]int, base.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.Reset()
		work.AppendAll(base)
		for j := range perm {
			perm[j] = j
		}
		sort.SliceStable(perm, func(x, y int) bool { return work.IsReal(perm[x]) && !work.IsReal(perm[y]) })
	}
}

func ablationBuffer(n int) *oblivious.Buffer {
	rng := rand.New(rand.NewSource(9)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	buf := oblivious.NewBuffer(1, n)
	for i := 0; i < n; i++ {
		buf.AppendSlot(table.Row{int64(i)}, rng.Intn(2) == 0, -1, -1)
	}
	return buf
}

// BenchmarkEndToEndTimerTPCDS measures one full DP-Timer deployment over the
// bench horizon: the cost of the whole simulation pipeline.
func BenchmarkEndToEndTimerTPCDS(b *testing.B) {
	wl := workload.TPCDS(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(wl, benchParams.Seed)
	cfg.T = 10
	b.ResetTimer()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.RunKind(sim.KindTimer, cfg, tr, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgL1, "avgL1")
	b.ReportMetric(r.AvgQET*1e3, "QETms")
}

// BenchmarkEndToEndANTCPDB is the CPDB/sDPANT counterpart.
func BenchmarkEndToEndANTCPDB(b *testing.B) {
	wl := workload.CPDB(benchParams.Steps, benchParams.Seed)
	tr, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(wl, benchParams.Seed)
	cfg.T = 3
	b.ResetTimer()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r, err = sim.RunKind(sim.KindANT, cfg, tr, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgL1, "avgL1")
	b.ReportMetric(r.AvgQET*1e3, "QETms")
}
