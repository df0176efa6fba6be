package main

import (
	"math"
	"time"

	"incshrink"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/query"
	"incshrink/internal/securearray"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// replays are the operator replay timings, seconds per call.
type replays struct {
	join, sort, compact, scan, sync, rewrite float64
}

// replayBudget bounds the wall time spent timing one operator.
const replayBudget = 300 * time.Millisecond

// timeOp times op, rebuilding its input with prep before every call
// (outside the timed region), until replayBudget is spent; it returns the
// median per-call time.
func timeOp(prep, op func()) float64 {
	var d dist
	deadline := time.Now().Add(replayBudget)
	for len(d) < 5 || (time.Now().Before(deadline) && len(d) < 2000) {
		prep()
		t0 := time.Now()
		op()
		d = append(d, time.Since(t0).Seconds())
	}
	return d.quantile(0.5)
}

// transformShape is the public shape of one Transform invocation: each
// side's upload block padded to its block size plus the active window
// padded to its cap. The caps follow from the view definition alone — a
// record joins at most min(Budget/Omega, Within/UploadEvery+1) invocations
// — so these are the padded sizes the engine sorts at every step. The
// engine does not export its caps, so this restates its padding policy
// and defaults; replayEngine fails the run when the replay's modelled cost
// differs from the engine's, which is how a change to that policy shows.
func transformShape(def incshrink.ViewDef, opts incshrink.Options) (blockL, blockR, inv, omega int) {
	omega = def.Omega
	if omega == 0 {
		omega = 1
	}
	budget := def.Budget
	if budget == 0 {
		budget = 10 * omega
	}
	every := max(opts.UploadEvery, 1)
	inv = min(budget/omega, int(def.Within)/every+1)
	blockL, blockR = opts.MaxLeft, opts.MaxRight
	if blockL == 0 {
		blockL = 32
	}
	if blockR == 0 {
		blockR = 32
	}
	return blockL, blockR, inv, omega
}

// replayEngine times the oblivious operators, the secure cache sync and the
// query rewrite on inputs shaped from the traced run's public sizes, and
// checks the join+compaction replay's modelled cost against the engine's
// modelled Transform cost per step: they agree exactly only when the
// replay runs at the engine's padded sizes.
func replayEngine(r *engineRun, rep *report) (replays, error) {
	var rp replays
	blockL, blockR, inv, omega := transformShape(r.spec.def, r.spec.opts)
	nl, nr := blockL*inv, blockR*inv
	// Every new pair involves a new record, each contributing at most
	// omega entries: the public delta cap the join output is compacted to.
	deltaCap := omega * (blockL + blockR)
	within := r.spec.def.Within
	left := make([]oblivious.Record, nl)
	right := make([]oblivious.Record, nr)
	for i := range left {
		left[i] = oblivious.Record{ID: int64(i + 1), Row: table.Row{int64(i + 1), 0}}
	}
	for i := range right {
		right[i] = oblivious.Record{ID: int64(nl + i + 1), Row: table.Row{int64(i + 1), int64(i) % (within + 1)}}
	}
	match := func(l, r oblivious.Record) bool {
		d := r.Row[workload.ColTime] - l.Row[workload.ColTime]
		return d >= 0 && d <= within
	}
	n := nl + nr
	rep.set("oblivious.join_n", float64(n), "count")
	rep.set("oblivious.join_comparators", float64(mpc.SortCompareExchanges(n)), "count")

	joined := oblivious.NewBuffer(workload.JoinArity, 0)
	rp.join = timeOp(joined.Reset, func() {
		oblivious.TruncatedSortMergeJoinInto(joined, left, right, workload.ColKey, workload.ColKey, match, omega, nil, mpc.OpTransform)
	})

	// The join's sort alone: the arity-3 (key, tag, srcIndex) adapter
	// sorted on (key, tag), the network the join runs internally.
	adapter := oblivious.NewBuffer(3, n)
	rp.sort = timeOp(func() {
		adapter.Reset()
		for i, l := range left {
			adapter.AppendRow(table.Row{l.Row[0], 0, int64(i)}, -1, -1)
		}
		for i, rr := range right {
			adapter.AppendRow(table.Row{rr.Row[0], 1, int64(i)}, -1, -1)
		}
	}, func() {
		oblivious.SortBuffer(adapter, oblivious.ByColumnAt(0, 1), nil, mpc.OpTransform, 192)
	})

	// Tight compaction of the padded join output down to the delta cap.
	dst := oblivious.NewBuffer(workload.JoinArity, 0)
	over := oblivious.NewBuffer(workload.JoinArity, 0)
	rp.compact = timeOp(func() { dst.Reset(); over.Reset() }, func() {
		oblivious.TightCompactInto(joined, deltaCap, dst, over, nil, mpc.OpTransform, 64*workload.JoinArity)
	})

	// Modelled cost of one replayed Transform against the engine's.
	meter := mpc.NewMeter(mpc.DefaultCostModel())
	joined.Reset()
	oblivious.TruncatedSortMergeJoinInto(joined, left, right, workload.ColKey, workload.ColKey, match, omega, meter, mpc.OpTransform)
	dst.Reset()
	over.Reset()
	oblivious.TightCompactInto(joined, deltaCap, dst, over, meter, mpc.OpTransform, 64*workload.JoinArity)
	// One Transform per step (every upload period is one step here).
	engine := r.cyc.model[0] / float64(r.cyc.steps)
	ratio := meter.Seconds(mpc.OpTransform) / engine
	rep.check(math.Abs(ratio-1) < 1e-9, "replayed Transform models %.9g of the engine's cost per step: the replay shape (join %d+%d, delta cap %d) is not the engine's", ratio, nl, nr, deltaCap)
	rep.set("oblivious.replay_model_ratio", ratio, "ratio")

	// The view scan behind every query, over a view of core.view_slots
	// slots (view 0 at run end), with the workload's filter.
	fin := r.final[0]
	view := oblivious.NewBuffer(workload.JoinArity, fin.ViewSlots)
	for i := 0; i < fin.ViewSlots; i++ {
		t := int64(i)
		view.AppendSlot(table.Row{t, t, t, t + int64(i%11)}, i < fin.ViewEntries, t, t)
	}
	schema := table.MustSchema("view", "left.key", "left.time", "right.key", "right.time")
	q := query.Count{}
	if r.spec.q1PerStep > 0 {
		q.Conds = []query.Cond{{Col: q1.Col, DiffCol: q1.Minus, Op: query.Op(q1.Cmp), Val: q1.Val}}
	}
	compiled, err := query.Rewrite(q, schema)
	if err != nil {
		return rp, err
	}
	pred := compiled.Predicate()
	rp.scan = timeOp(func() {}, func() { oblivious.CountBuffer(view, pred, nil, mpc.OpQuery) })

	// The rewrite itself, batched: one call is well under a microsecond.
	const rewrites = 1000
	rp.rewrite = timeOp(func() {}, func() {
		for i := 0; i < rewrites; i++ {
			if _, err := query.Rewrite(q, schema); err != nil {
				panic(err)
			}
		}
	}) / rewrites

	// The Shrink sync: sort the cache and cut a DP-sized fetch into the
	// view. The cache holds core.cache_slots slots (view 0 at run end); the
	// fetch is the run's mean public fetch size.
	fetch := 0
	if upd := fin.Updates - r.start0.Updates; upd > 0 {
		fetch = int(math.Round(float64(fin.ViewSlots-r.start0.ViewSlots) / float64(upd)))
	}
	slots := max(fin.CacheSlots, fetch)
	batch := oblivious.NewBuffer(workload.JoinArity, slots)
	for i := 0; i < slots; i++ {
		t := int64(i)
		batch.AppendSlot(table.Row{t, t, t, t}, i%3 == 0, t, t)
	}
	var cache *securearray.Cache
	var sv *securearray.View
	rp.sync = timeOp(func() {
		cache = securearray.New(workload.JoinArity, 64*workload.JoinArity, nil)
		cache.Append(batch)
		sv = securearray.NewView(workload.JoinArity)
	}, func() {
		cache.ReadAndPruneInto(sv, fetch, 0, slots-fetch)
	})

	rep.set("oblivious.join_us", 1e6*rp.join, "us")
	rep.set("oblivious.join_sort_us", 1e6*rp.sort, "us")
	rep.set("oblivious.compact_us", 1e6*rp.compact, "us")
	rep.set("oblivious.scan_us", 1e6*rp.scan, "us")
	rep.set("securearray.sync_us", 1e6*rp.sync, "us")
	rep.set("query.rewrite_us", 1e6*rp.rewrite, "us")
	rep.note("replay shapes: join %d+%d (n=%d, omega=%d) compact cap %d, scan %d slots, sync cache %d fetch %d", nl, nr, n, omega, deltaCap, fin.ViewSlots, slots, fetch)
	return rp, nil
}
