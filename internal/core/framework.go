package core

import (
	"fmt"
	"math"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/securearray"
	"incshrink/internal/table"
	"incshrink/internal/workload"
)

// Config carries the IncShrink deployment parameters of Section 7.
type Config struct {
	// Epsilon is the per-update-stream privacy budget (default 1.5).
	Epsilon float64
	// Omega is the truncation bound of trans_truncate (Eq. 3).
	Omega int
	// Budget is the total contribution budget b per outsourced record.
	Budget int
	// T is the sDPTimer update interval in time steps.
	T int
	// Theta is the sDPANT synchronization threshold.
	Theta float64
	// FlushEvery and FlushSize parameterize the independent cache flush
	// (defaults 2000 and 15). FlushEvery = 0 disables flushing.
	FlushEvery, FlushSize int
	// PruneTo, when positive, prunes the cache to this public length after
	// every view update, recycling the (w.h.p. dummy) tail. It is the
	// Theorem-4-sized incremental variant of the cache flush; set to 0 to
	// run the paper's literal protocol (cache grows until the flush).
	PruneTo int
	// SpillPerUpdate additionally moves this many slots from the head of
	// the sorted cache into the view at every update (beyond the DP-sized
	// fetch). Because real tuples sort first, the spill drains deferred
	// data, keeping the deferred-data walk bounded at any horizon at the
	// cost of at most SpillPerUpdate dummy view slots per update.
	SpillPerUpdate int
	// RawDelta disables the tight compaction of the Transform output: the
	// cache receives the raw exhaustively padded join array. This is what
	// the EP baseline does and what makes it slow.
	RawDelta bool
	// MergeWindows enables window merging in StepBatch: upload blocks that
	// fall between two Shrink observation points are coalesced into ONE
	// Transform over the merged window — one Batcher network of kn elements
	// instead of k networks of n, which wins superlinearly because the
	// network is Theta(n log^2 n). Merging preserves count trajectories on
	// single-contribution streams and keeps the meter honest (charges follow
	// SortCompareExchanges of the merged size), but it is NOT byte-identical
	// to sequential stepping: the merged invocation charges fewer gates,
	// emits one batch event instead of k, and applies the omega truncation
	// per merged invocation rather than per block. Leave it off (the
	// default) where byte-exact equivalence to Step-by-Step execution is the
	// contract. See DESIGN.md §12.
	MergeWindows bool
	// Cost is the MPC cost model.
	Cost mpc.CostModel
	// Seed drives all protocol randomness.
	Seed int64
}

// DefaultConfig returns the paper's default setting for a workload: eps=1.5,
// f=2000, s=15, theta=30, T = floor(30 / mean entries per step), and the
// dataset-specific omega and b of Section 7 (omega=1,b=10 for multiplicity-1
// workloads; omega=10,b=20 otherwise).
func DefaultConfig(wl workload.Config, seed int64) Config {
	cfg := Config{
		Epsilon:    1.5,
		FlushEvery: 2000,
		FlushSize:  15,
		Theta:      30,
		Cost:       mpc.DefaultCostModel(),
		Seed:       seed,
	}
	if wl.MaxMultiplicity <= 1 {
		cfg.Omega, cfg.Budget = 1, 10
	} else {
		cfg.Omega, cfg.Budget = 10, 20
	}
	if wl.PairRate > 0 {
		cfg.T = int(math.Floor(cfg.Theta / wl.PairRate))
	}
	if cfg.T < 1 {
		cfg.T = 1
	}
	// Incremental Theorem-4 pruning keeps the cache near its deferred-data
	// bound (see DESIGN.md): bound at the flush horizon plus two batches.
	cfg.PruneTo = PruneBound(cfg, wl)
	cfg.SpillPerUpdate = SpillBound(cfg, wl)
	return cfg
}

// SpillBound sizes the per-update deferred-data spill: a small constant
// drain proportional to the data rate (about a quarter of one update
// interval's expected new entries) and *independent of epsilon*, so the
// deferred-data level — and with it the privacy-accuracy trade-off of
// Figure 5 — still scales with the noise while no longer growing with the
// horizon.
func SpillBound(cfg Config, wl workload.Config) int {
	if wl.PairRate > 0 {
		T := cfg.T
		if T < 1 {
			T = 1
		}
		return int(math.Ceil(wl.PairRate*float64(T)/4)) + 1
	}
	if cfg.Omega > 2 {
		return cfg.Omega
	}
	return 2
}

// PruneBound computes the public cache length the incremental prune keeps:
// the Theorem-4 deferred-data bound for the configured epsilon/budget plus
// two padded batches of headroom.
func PruneBound(cfg Config, wl workload.Config) int {
	// Deferred-data bound (Theorem 4) over a short horizon of updates plus
	// two padded batches of headroom: beyond this length the sorted cache
	// tail is dummy with high probability.
	const k = 8
	alpha := 2 * float64(cfg.Budget) / cfg.Epsilon * math.Sqrt(float64(k)*math.Log(20))
	batch := cfg.Omega * (wl.MaxLeft + wl.MaxRight)
	if wl.RightDrivesPairs {
		batch = cfg.Omega * wl.MaxRight
	}
	return int(alpha) + batch
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !(c.Epsilon > 0):
		return fmt.Errorf("core: Epsilon must be positive, got %v", c.Epsilon)
	case c.Omega < 1:
		return fmt.Errorf("core: Omega must be at least 1, got %d", c.Omega)
	case c.Budget != 0 && c.Budget < c.Omega:
		return fmt.Errorf("core: Budget %d below Omega %d would retire records before first use", c.Budget, c.Omega)
	case c.FlushEvery < 0 || c.FlushSize < 0:
		return fmt.Errorf("core: flush parameters must be non-negative")
	}
	return nil
}

// Engine is the interface the simulation driver runs: one call per time
// step with the owners' uploads, plus a standing count query over the view
// definition.
type Engine interface {
	// Step ingests one time step of the workload.
	Step(st workload.Step)
	// Query answers the standing view-definition count query, returning the
	// answer and the simulated query execution time in seconds.
	Query() (result int, qetSeconds float64)
	// Metrics exposes the engine's accumulated measurements.
	Metrics() Metrics
	// Name identifies the engine for reports (DP-Timer, DP-ANT, EP, ...).
	Name() string
}

// Metrics aggregates an engine's instrumentation.
type Metrics struct {
	ViewLen       int
	ViewReal      int
	ViewBytes     int64
	CacheLen      int
	CacheReal     int
	CacheMax      int
	Updates       int
	Transforms    int
	LostReal      int
	Created       int
	TransformSecs float64 // cumulative simulated seconds
	ShrinkSecs    float64
	QuerySecs     float64
	Queries       int
	TotalMPCSecs  float64
}

// AvgTransformSecs returns the mean Transform invocation time.
func (m Metrics) AvgTransformSecs() float64 { return safeDiv(m.TransformSecs, float64(m.Transforms)) }

// AvgShrinkSecs returns the mean Shrink execution time per view update.
func (m Metrics) AvgShrinkSecs() float64 { return safeDiv(m.ShrinkSecs, float64(m.Updates)) }

// AvgQuerySecs returns the mean query execution time (QET).
func (m Metrics) AvgQuerySecs() float64 { return safeDiv(m.QuerySecs, float64(m.Queries)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Framework is the IncShrink engine: Transform + a Shrink protocol over the
// two-server MPC runtime.
type Framework struct {
	cfg Config
	wl  workload.Config
	rt  *mpc.Runtime

	cache *securearray.Cache
	view  *securearray.View

	leftBudget  *BudgetTracker
	rightBudget *BudgetTracker
	activeLeft  []oblivious.Record
	activeRight []oblivious.Record
	leftSince   map[int64]int // record id -> arrival step, for window aging
	rightSince  map[int64]int

	shrink       Shrinker
	match        oblivious.MatchFunc
	pendingRight []oblivious.Record // public arrivals awaiting the next upload
	overflow     *oblivious.Buffer  // real entries beyond the delta cap, carried forward
	dummyID      int64              // descending generator for padding-record keys

	// Per-transform scratch, reused across invocations so the steady-state
	// Advance path allocates (almost) nothing: the padded input windows, the
	// new-record ID set, a flat arena for padding-record payloads (dummy
	// records live only for the duration of one transform), and the two
	// transform temporaries — the exhaustively padded join output and the
	// compacted delta. The temporaries are framework-owned rather than
	// pool-borrowed so a batched ingest (StepBatch) reuses the same arenas
	// across every step of the batch with no pool round-trips in between.
	inLeft, inRight []oblivious.Record
	newIDs          map[int64]bool
	padRows         table.Flat
	joinBuf         *oblivious.Buffer
	deltaBuf        *oblivious.Buffer

	// The upload blocks awaiting the next Transform and the arena their
	// pending-right snapshots live in: one block per sequential step, or
	// every block since the last Shrink observation point under
	// Config.MergeWindows. Blocks never outlive one Step/StepBatch call —
	// the last step of a call always runs Transform — so neither field is
	// part of the durable state.
	blocks     []uploadBlock
	blockRight []oblivious.Record

	// Public input caps: the active windows are padded to these sizes so the
	// Transform input — and therefore its cost and its padded output — is
	// data-independent.
	activeLeftCap, activeRightCap int

	created    int
	lostReal   int
	transforms int
	queries    int
	querySecs  float64
	now        int

	// ins observes the engine (phase timings, window/budget gauges,
	// predicted-vs-measured cost). nil means uninstrumented; every hook
	// no-ops. See observe.go.
	ins *Instruments
}

// tupleBits is the secret payload width of a view entry (two stream rows).
const tupleBits = 64 * workload.JoinArity

// New builds an IncShrink engine for a workload with the given Shrink
// protocol.
func New(cfg Config, wl workload.Config, shrink Shrinker) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if shrink == nil {
		return nil, fmt.Errorf("core: nil Shrink protocol")
	}
	rt := mpc.NewRuntime(cfg.Cost, cfg.Seed)
	f := &Framework{
		cfg:         cfg,
		wl:          wl,
		rt:          rt,
		cache:       securearray.New(workload.JoinArity, tupleBits, rt.Meter),
		view:        securearray.NewView(workload.JoinArity),
		leftBudget:  NewBudgetTracker(cfg.Budget),
		rightBudget: NewBudgetTracker(rightBudgetFor(cfg, wl)),
		leftSince:   make(map[int64]int),
		rightSince:  make(map[int64]int),
		shrink:      shrink,
		match:       wl.Match(),
		overflow:    oblivious.NewBuffer(workload.JoinArity, 0),
		newIDs:      make(map[int64]bool),
		padRows:     *table.NewFlat(workload.StreamArity, 0),
		joinBuf:     oblivious.NewBuffer(workload.JoinArity, 0),
		deltaBuf:    oblivious.NewBuffer(workload.JoinArity, 0),
		dummyID:     -2, // -1 is reserved for dummy entries
	}
	inv := invocationsPerRecord(cfg, wl)
	f.activeLeftCap = (inv - 1) * wl.MaxLeft
	if !wl.RightPublic {
		f.activeRightCap = (inv - 1) * wl.MaxRight
	}
	// Alg. 1 line 1-2: initialize the shared cardinality counter to zero.
	rt.ShareToServers(counterKey, 0)
	shrink.Init(f)
	return f, nil
}

// invocationsPerRecord is the public number of Transform invocations any
// record participates in: limited by its contribution budget (b/omega uses)
// and by the temporal join window (a record older than Within steps can no
// longer form new pairs).
func invocationsPerRecord(cfg Config, wl workload.Config) int {
	byWindow := int(wl.Within)/wl.UploadEvery + 1
	if cfg.Budget <= 0 {
		return byWindow
	}
	byBudget := cfg.Budget / cfg.Omega
	if byBudget < 1 {
		byBudget = 1
	}
	if byBudget < byWindow {
		return byBudget
	}
	return byWindow
}

// deltaCap is the public bound on new view entries per Transform invocation:
// every new pair involves at least one newly uploaded record, and each
// record contributes at most omega entries per invocation, so
// omega * (new left + new right) bounds the batch — or omega * new right
// alone when the workload declares that pairs are right-driven (the
// overflow carry catches the rare exceptions). A zero cap disables tight
// compaction (the EP baseline caches the raw padded output).
func (f *Framework) deltaCap(nLeft, nRight int) int {
	if f.cfg.RawDelta {
		return 0
	}
	if f.wl.RightDrivesPairs {
		return f.cfg.Omega * nRight
	}
	return f.cfg.Omega * (nLeft + nRight)
}

func rightBudgetFor(cfg Config, wl workload.Config) int {
	if wl.RightPublic {
		return 0 // public relation: unlimited
	}
	return cfg.Budget
}

const counterKey = "c"

// Name implements Engine.
func (f *Framework) Name() string { return "DP-" + f.shrink.Name() }

// Runtime exposes the MPC runtime (transcripts and meter) for experiments
// and leakage tests.
func (f *Framework) Runtime() *mpc.Runtime { return f.rt }

// View exposes the materialized view (read-only use).
func (f *Framework) View() *securearray.View { return f.view }

// Cache exposes the secure cache (read-only use).
func (f *Framework) Cache() *securearray.Cache { return f.cache }

// Config returns the engine configuration.
func (f *Framework) Config() Config { return f.cfg }

// Step implements Engine: run Transform on the step's uploads, then let the
// Shrink protocol act, then the independent cache flush.
func (f *Framework) Step(st workload.Step) { f.step(st, true) }

// StepBatch ingests a contiguous run of time steps in one call, and is the
// engine-side target of batched ingestion (incshrink.DB.AdvanceBatch, the
// serving layer's mailbox coalescing). Without Config.MergeWindows it is
// exactly equivalent to calling Step on every element in order — same
// counts, same simulated costs, same RNG draws, byte-identical snapshots.
// With it, the upload blocks between Shrink observation points share one
// Transform over the merged window; see step for the segment boundaries and
// transform and DESIGN.md §12 for the costs that intentionally differ.
func (f *Framework) StepBatch(steps []workload.Step) {
	for i := range steps {
		f.step(steps[i], i == len(steps)-1)
	}
}

// step ingests one time step: it queues the step's upload block, runs
// Transform when the segment must close, then lets the Shrink protocol act
// and runs the independent cache flush. last marks the end of the caller's
// batch: the framework never holds upload blocks across calls.
func (f *Framework) step(st workload.Step, last bool) {
	f.now = st.T
	f.rt.SetTime(st.T)

	// Public-relation arrivals accumulate between uploads; Transform runs
	// only when owners submit data ("whenever owners submit new data, the
	// servers invoke Transform"), so each record is charged omega once per
	// upload period and its budget window spans the temporal join window.
	f.pendingRight = append(f.pendingRight, st.Right...)
	if f.uploadDue(st.T) {
		rlo := len(f.blockRight)
		f.blockRight = append(f.blockRight, f.pendingRight...)
		f.blocks = append(f.blocks, uploadBlock{
			t: st.T, left: st.Left, rlo: rlo, rhi: len(f.blockRight),
		})
		f.pendingRight = f.pendingRight[:0]
	}
	// Without merging every upload is its own one-block segment. With it,
	// the segment closes where deferral would become visible: before a
	// Shrink observation (StepObserver), the independent flush, or the end
	// of the batch.
	if len(f.blocks) > 0 && (!f.cfg.MergeWindows || last || f.observesAt(st.T) || f.flushDue(st.T)) {
		f.transform(f.blocks)
		f.blocks = f.blocks[:0]
		f.blockRight = f.blockRight[:0]
	}

	shrinkProbe := f.ins.phaseStart(f.rt)
	f.shrink.Tick(f, st.T)
	f.ins.phaseDone("shrink", mpc.OpShrink, shrinkProbe, f.rt)

	if f.flushDue(st.T) {
		fetched, lost := f.cache.FlushInto(f.view, f.cfg.FlushSize)
		f.lostReal += lost
		f.rt.ObserveFlush(fetched, "flush")
	}

	f.ins.stepDone(f)
}

// uploadBlock is one step's upload awaiting Transform: the step time, the
// left upload, and the span of f.blockRight holding the public-relation
// arrivals that accumulated up to it. inLeft/inRight spans are filled by
// transform once the input is built, so the retain pass can walk blocks
// newest-first.
type uploadBlock struct {
	t         int
	left      []oblivious.Record
	rlo, rhi  int // f.blockRight span
	inLeftLo  int // f.inLeft span (set by transform)
	inLeftHi  int
	inRightLo int // f.inRight span (set by transform)
	inRightHi int
}

// observesAt reports whether the Shrink protocol will look at the counter or
// the cache at step t. Protocols that don't declare their observation
// schedule (StepObserver) are assumed to observe every step, which
// degenerates window merging to per-step transforms — correct, just not
// faster.
func (f *Framework) observesAt(t int) bool {
	if so, ok := f.shrink.(StepObserver); ok {
		return so.ObservesAt(f, t)
	}
	return true
}

// flushDue reports whether the independent cache flush fires at step t.
func (f *Framework) flushDue(t int) bool {
	return f.cfg.FlushEvery > 0 && t > 0 && t%f.cfg.FlushEvery == 0
}

// uploadDue reports whether the owners' schedule ships a (possibly empty,
// fully padded) block this step — Transform runs on schedule even when no
// real data arrived, hiding the distinction.
func (f *Framework) uploadDue(t int) bool {
	return (t+1)%f.wl.UploadEvery == 0
}

// transform is the Transform protocol of Algorithm 1, run once over a
// segment of k upload blocks: k = 1 for every sequential step, k >= 1 for a
// window-merged segment (Config.MergeWindows). Its intermediates live in
// per-framework scratch and pooled columnar buffers, so a steady-state
// invocation stays off the allocator: padded inputs reuse f.inLeft/f.inRight,
// padding-record payloads live in the f.padRows arena, and the join output,
// compaction output and overflow carry are arena-backed oblivious.Buffers.
//
// For k > 1 it is the per-merged-invocation variant of Algorithm 1:
//
//   - One sort-merge join over the k*MaxLeft (+caps) merged input — the
//     meter's ChargeSort follows SortCompareExchanges of the merged adapter
//     size, so the superlinear saving is priced, not hidden.
//   - The omega truncation bounds each record's contribution per MERGED
//     invocation, not per block; on streams where a record's pairs all land
//     in one block (multiplicity-1 workloads like the corebench stream) the
//     produced pair set is identical to sequential.
//   - The cardinality counter is re-shared once per covered block — all k
//     reshares carrying the final cumulative count — so the RNG stream and
//     the counter value at every observation point line up exactly with
//     sequential execution (no Shrink observation can occur inside a
//     segment, by construction of the boundaries).
//   - Budgets age identically: retain walks each record over every block it
//     would have been input to, consuming omega per block and applying the
//     temporal-window check at that block's time, reproducing the sequential
//     budget and arrival maps including death order.
//   - transforms counts one invocation, and one batch event is emitted for
//     the merged delta (transcript shape differs from sequential; the
//     security argument is unchanged because the merged sizes are public
//     functions of k and the deployment).
func (f *Framework) transform(blocks []uploadBlock) {
	probe := f.ins.phaseStart(f.rt)
	f.transforms++
	k := len(blocks)

	// Register fresh records with their contribution budget and arrival
	// time.
	for bi := range blocks {
		b := &blocks[bi]
		for _, r := range b.left {
			f.leftBudget.Register(r.ID)
			f.leftSince[r.ID] = b.t
		}
		for _, r := range f.blockRight[b.rlo:b.rhi] {
			f.rightBudget.Register(r.ID)
			f.rightSince[r.ID] = b.t
		}
	}

	// Reserve the padding arena up front so the Record row views handed out
	// by appendPadded stay valid for the whole invocation.
	padStart := f.ins.now()
	f.padRows.Reset()
	f.padRows.Grow(k*(f.wl.MaxLeft+f.wl.MaxRight) + f.activeLeftCap + f.activeRightCap)

	// The full input is every upload block padded to its public block size
	// (pads carry the block's arrival time), then the active windows — the
	// state from before the segment — padded to their public caps, so the
	// input size (and thus the protocol's cost and output size) is
	// data-independent. Public relations need no padding (their content is
	// not secret).
	f.inLeft = f.inLeft[:0]
	for bi := range blocks {
		b := &blocks[bi]
		b.inLeftLo = len(f.inLeft)
		f.inLeft = f.appendPadded(f.inLeft, b.left, f.wl.MaxLeft, b.t)
		b.inLeftHi = len(f.inLeft)
	}
	nLeft := len(f.inLeft)
	f.inLeft = f.appendPaddedActive(f.inLeft, f.activeLeft, f.activeLeftCap, f.leftBudget, f.leftSince)

	rightBlock := f.wl.MaxRight
	if f.wl.RightPublic {
		rightBlock = 0
	}
	f.inRight = f.inRight[:0]
	for bi := range blocks {
		b := &blocks[bi]
		b.inRightLo = len(f.inRight)
		f.inRight = f.appendPadded(f.inRight, f.blockRight[b.rlo:b.rhi], rightBlock, b.t)
		b.inRightHi = len(f.inRight)
	}
	nRight := len(f.inRight)
	f.inRight = f.appendPaddedActive(f.inRight, f.activeRight, f.activeRightCap, f.rightBudget, f.rightSince)
	f.ins.observePad(padStart)

	clear(f.newIDs)
	for _, r := range f.inLeft[:nLeft] {
		f.newIDs[r.ID] = true
	}
	for _, r := range f.inRight[:nRight] {
		f.newIDs[r.ID] = true
	}

	// The join condition is the view definition's temporal predicate, plus
	// "at least one side is new" so pairs already produced by an earlier
	// invocation are not regenerated (applied inside truncatedJoinInto; both
	// checks compile to constant-size circuits over the secret payloads).
	joined := f.joinBuf
	joined.Reset()
	f.truncatedJoinInto(joined, f.inLeft, f.inRight)

	// Tighten the exhaustively padded join output to the public
	// maximum-new-entries bound before caching. Entries beyond the cap (rare
	// late-shipped pairs) carry over to the next invocation's batch.
	delta := joined
	if cap := f.deltaCap(nLeft, nRight); cap > 0 {
		f.overflow.AppendAll(joined) // carried entries first, then this batch
		delta = f.deltaBuf
		delta.Reset()
		next := oblivious.GetBuffer(workload.JoinArity)
		oblivious.TightCompactInto(f.overflow, cap, delta, next, f.rt.Meter, mpc.OpTransform, tupleBits)
		f.overflow.Release()
		f.overflow = next
	}

	// Alg. 1 lines 4-6: update and re-share the cardinality counter, once
	// per covered block so the joint-randomness stream advances exactly as
	// it would have sequentially; every reshare carries the final count,
	// which is the only value any later observation can see.
	newReal := delta.Real()
	c, err := f.rt.RecoverInside(counterKey)
	if err != nil {
		panic("core: counter share lost: " + err.Error())
	}
	total := c + uint32(newReal)
	for range blocks {
		f.rt.ShareToServers(counterKey, total)
	}
	f.created += newReal

	// Alg. 1 line 7: append the exhaustively padded output to the cache
	// (Append copies; delta is framework scratch reused by the next
	// invocation).
	f.cache.Append(delta)
	f.rt.ObserveBatch(delta.Len(), "transform")

	// Charge contribution budgets and rebuild the active windows in
	// sequential order — newest block first, then the pre-segment actives.
	// The input windows already copied the previous active sets, so the
	// active slices can be rebuilt in place.
	f.activeLeft = f.activeLeft[:0]
	for bi := k - 1; bi >= 0; bi-- {
		b := &blocks[bi]
		f.activeLeft = f.retain(f.activeLeft, f.inLeft[b.inLeftLo:b.inLeftHi], f.leftBudget, f.leftSince, blocks)
	}
	f.activeLeft = f.retain(f.activeLeft, f.inLeft[nLeft:], f.leftBudget, f.leftSince, blocks)

	f.activeRight = f.activeRight[:0]
	for bi := k - 1; bi >= 0; bi-- {
		b := &blocks[bi]
		f.activeRight = f.retain(f.activeRight, f.inRight[b.inRightLo:b.inRightHi], f.rightBudget, f.rightSince, blocks)
	}
	f.activeRight = f.retain(f.activeRight, f.inRight[nRight:], f.rightBudget, f.rightSince, blocks)

	f.ins.phaseDone("transform", mpc.OpTransform, probe, f.rt)
}

// retain appends to out the input records that survive the segment: each
// record consumes omega for every block from its arrival onward and must
// stay inside the temporal window at each of those block times — the
// per-step consume-then-check sequence of Algorithm 1, so budgets, death
// steps and the arrival map come out identical to sequential execution. A
// dropped record never enters Transform again, so its arrival time and any
// budget it still holds are retired with it.
func (f *Framework) retain(out, in []oblivious.Record, bt *BudgetTracker, since map[int64]int, blocks []uploadBlock) []oblivious.Record {
	for _, r := range in {
		if r.ID < 0 {
			continue // upload padding never persists
		}
		arrived, ok := since[r.ID]
		alive := ok
		if alive {
			for bi := range blocks {
				if blocks[bi].t < arrived {
					continue
				}
				if !bt.Consume(r.ID, f.cfg.Omega) || int64(blocks[bi].t-arrived) > f.wl.Within {
					alive = false
					break
				}
			}
		}
		if alive {
			out = append(out, r)
		} else {
			delete(since, r.ID)
			bt.retire(r.ID)
		}
	}
	return out
}

// truncatedJoinInto runs the omega-truncated oblivious sort-merge join over
// the inputs into dst, keeping only pairs involving at least one new record
// (pairs between two previously seen records were emitted by an earlier
// invocation).
func (f *Framework) truncatedJoinInto(dst *oblivious.Buffer, inLeft, inRight []oblivious.Record) {
	match := func(l, r oblivious.Record) bool {
		if !f.newIDs[l.ID] && !f.newIDs[r.ID] {
			return false
		}
		return f.match(l, r)
	}
	oblivious.TruncatedSortMergeJoinInto(dst, inLeft, inRight,
		workload.ColKey, workload.ColKey, match, f.cfg.Omega, f.rt.Meter, mpc.OpTransform)
}

// appendPaddedActive appends an active window padded to its public cap (0
// for a public relation: no padding). In a window-bound deployment the
// window can hold one generation more than the cap — records stay active
// through the invocation at which they reach the window's edge — and that
// oldest tail is clamped off: it can form no new pairs and never enters
// Transform again, so its arrival times and budgets are retired with it.
func (f *Framework) appendPaddedActive(dst, active []oblivious.Record, cap int, bt *BudgetTracker, since map[int64]int) []oblivious.Record {
	if cap > 0 && len(active) > cap {
		for _, r := range active[cap:] {
			delete(since, r.ID)
			bt.retire(r.ID)
		}
		active = active[:cap]
	}
	return f.appendPadded(dst, active, cap, f.now)
}

// appendPadded appends rs to dst and pads them up to size with dummy
// records stamped with arrival step t (each block's pads carry that block's
// time). Dummies carry fresh never-matching keys, and their payload rows
// live in the per-transform flat arena (f.padRows) instead of their own heap
// allocations; they never outlive the invocation (retain drops them before
// the arena is reset).
func (f *Framework) appendPadded(dst, rs []oblivious.Record, size, t int) []oblivious.Record {
	dst = append(dst, rs...)
	for n := len(rs); n < size; n++ {
		f.padRows.AppendRow(table.Row{f.dummyID, int64(t)})
		dst = append(dst, oblivious.Record{ID: f.dummyID, Row: f.padRows.Row(f.padRows.Rows() - 1)})
		f.dummyID--
	}
	return dst
}

// Query implements Engine: one oblivious scan over the materialized view,
// counting real entries (the view definition already encodes the temporal
// predicate, so the standing query counts every real view tuple).
func (f *Framework) Query() (int, float64) {
	return f.QueryWhere(func(table.Row) bool { return true })
}

// QueryWhere answers an arbitrary predicate-count over the materialized
// view with one oblivious scan — the execution target of rewritten queries
// (internal/query). View rows have the layout {left..., right...}; the scan
// runs over the view arena, handing the predicate zero-copy row views.
func (f *Framework) QueryWhere(pred table.Predicate) (int, float64) {
	qProbe := f.ins.phaseStart(f.rt)
	before := f.rt.Meter.Seconds(mpc.OpQuery)
	res := oblivious.CountBuffer(f.view.Buffer(), pred, f.rt.Meter, mpc.OpQuery)
	qet := f.rt.Meter.Seconds(mpc.OpQuery) - before
	f.queries++
	f.querySecs += qet
	f.ins.phaseDone("query", mpc.OpQuery, qProbe, f.rt)
	return res, qet
}

// Metrics implements Engine.
func (f *Framework) Metrics() Metrics {
	return Metrics{
		ViewLen:       f.view.Len(),
		ViewReal:      f.view.Real(),
		ViewBytes:     f.view.SizeBytes(tupleBits),
		CacheLen:      f.cache.Len(),
		CacheReal:     f.cache.Real(),
		CacheMax:      f.cache.MaxLen(),
		Updates:       f.view.Updates(),
		Transforms:    f.transforms,
		LostReal:      f.lostReal,
		Created:       f.created,
		TransformSecs: f.rt.Meter.Seconds(mpc.OpTransform),
		ShrinkSecs:    f.rt.Meter.Seconds(mpc.OpShrink),
		QuerySecs:     f.querySecs,
		Queries:       f.queries,
		TotalMPCSecs:  f.rt.Meter.Seconds(mpc.OpTransform) + f.rt.Meter.Seconds(mpc.OpShrink),
	}
}
