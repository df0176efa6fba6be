package core

import (
	"math"
	"testing"

	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/workload"
)

func mustTrace(t *testing.T, cfg workload.Config) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// run drives an engine over a trace, returning per-step L1 errors.
func run(t *testing.T, e Engine, tr *workload.Trace) []float64 {
	t.Helper()
	truth := 0
	errs := make([]float64, 0, len(tr.Steps))
	for _, st := range tr.Steps {
		e.Step(st)
		truth += st.NewPairs
		res, _ := e.Query()
		errs = append(errs, math.Abs(float64(truth-res)))
	}
	return errs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestConfigValidate(t *testing.T) {
	wl := workload.TPCDS(100, 1)
	good := DefaultConfig(wl, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.Epsilon = math.Inf(1) * 0 }, // NaN
		func(c *Config) { c.Omega = 0 },
		func(c *Config) { c.Budget = 1; c.Omega = 5 },
		func(c *Config) { c.FlushEvery = -1 },
		func(c *Config) { c.FlushSize = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(wl, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigPerWorkload(t *testing.T) {
	tp := DefaultConfig(workload.TPCDS(100, 1), 1)
	if tp.Omega != 1 || tp.Budget != 10 {
		t.Errorf("TPC-ds omega/b = %d/%d, want 1/10", tp.Omega, tp.Budget)
	}
	if tp.T != 11 { // floor(30/2.7)
		t.Errorf("TPC-ds T = %d, want 11", tp.T)
	}
	cp := DefaultConfig(workload.CPDB(100, 1), 1)
	if cp.Omega != 10 || cp.Budget != 20 {
		t.Errorf("CPDB omega/b = %d/%d, want 10/20", cp.Omega, cp.Budget)
	}
	if cp.T != 3 { // floor(30/9.8)
		t.Errorf("CPDB T = %d, want 3", cp.T)
	}
	if tp.Epsilon != 1.5 || tp.FlushEvery != 2000 || tp.FlushSize != 15 || tp.Theta != 30 {
		t.Error("paper defaults not applied")
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	wl := workload.TPCDS(100, 1)
	cfg := DefaultConfig(wl, 1)
	if _, err := New(cfg, wl, nil); err == nil {
		t.Error("nil shrinker accepted")
	}
	cfg.Epsilon = -1
	if _, err := New(cfg, wl, &Timer{}); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = DefaultConfig(wl, 1)
	wl.Steps = 0
	if _, err := New(cfg, wl, &Timer{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestTimerEndToEndTPCDS(t *testing.T) {
	wlCfg := workload.TPCDS(400, 42)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 42)
	cfg.T = 10
	f, err := NewTimerEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	m := f.Metrics()
	if m.Updates == 0 {
		t.Fatal("no view updates happened")
	}
	if m.ViewReal == 0 {
		t.Fatal("no real tuples reached the view")
	}
	avg := mean(errs)
	if avg > 120 {
		t.Errorf("avg L1 error %v too large for defaults (paper: ~40)", avg)
	}
	// Relative error at the end of the horizon should be small (paper: 3%).
	final := errs[len(errs)-1]
	if rel := final / float64(tr.TotalPairs); rel > 0.25 {
		t.Errorf("final relative error %v too large", rel)
	}
}

func TestANTEndToEndTPCDS(t *testing.T) {
	wlCfg := workload.TPCDS(400, 42)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 42)
	f, err := NewANTEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	m := f.Metrics()
	if m.Updates == 0 {
		t.Fatal("ANT never updated the view")
	}
	if avg := mean(errs); avg > 120 {
		t.Errorf("ANT avg L1 error %v too large", avg)
	}
	// At eps=1.5 the SVT check noise Lap(8b/eps) is large relative to
	// theta=30, so ANT fires well before the counter truly crosses the
	// threshold (Observation 3: small eps means more frequent updates). The
	// rate must exceed the noiseless 30/2.7~11-step cadence but not fire
	// every single step.
	updates := m.Updates
	if updates < 20 || updates > 300 {
		t.Errorf("ANT updates = %d over 400 steps, out of plausible range", updates)
	}
}

func TestTimerEndToEndCPDB(t *testing.T) {
	wlCfg := workload.CPDB(300, 7)
	tr := mustTrace(t, wlCfg)
	cfg := DefaultConfig(wlCfg, 7)
	f, err := NewTimerEngine(cfg, wlCfg)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, f, tr)
	if f.Metrics().ViewReal == 0 {
		t.Fatal("CPDB: no real tuples reached the view")
	}
	// CPDB has omega=10 < max multiplicity 15, so some truncation error is
	// expected, but the average should stay well under OTM-level error.
	if avg := mean(errs); avg > 0.3*float64(tr.TotalPairs) {
		t.Errorf("CPDB avg error %v vs total %d: too large", avg, tr.TotalPairs)
	}
}

// TestConservation: every real entry ever created by Transform is either in
// the view, still in the cache, or was recycled by a flush/prune.
func TestConservation(t *testing.T) {
	for _, mk := range []func() (Engine, *workload.Trace){
		func() (Engine, *workload.Trace) {
			wl := workload.TPCDS(300, 9)
			tr := mustTrace(t, wl)
			f, _ := NewTimerEngine(DefaultConfig(wl, 9), wl)
			return f, tr
		},
		func() (Engine, *workload.Trace) {
			wl := workload.CPDB(300, 9)
			tr := mustTrace(t, wl)
			f, _ := NewANTEngine(DefaultConfig(wl, 9), wl)
			return f, tr
		},
	} {
		e, tr := mk()
		for _, st := range tr.Steps {
			e.Step(st)
			m := e.Metrics()
			if got := m.ViewReal + m.CacheReal + m.LostReal; got != m.Created {
				t.Fatalf("t=%d: view %d + cache %d + lost %d = %d != created %d",
					st.T, m.ViewReal, m.CacheReal, m.LostReal, got, m.Created)
			}
		}
	}
}

// TestCreatedNeverExceedsTruth: Transform can only materialize logical pairs
// (deferred or truncated pairs reduce, never inflate, the count).
func TestCreatedNeverExceedsTruth(t *testing.T) {
	wl := workload.TPCDS(300, 11)
	tr := mustTrace(t, wl)
	f, _ := NewTimerEngine(DefaultConfig(wl, 11), wl)
	truth := 0
	for _, st := range tr.Steps {
		f.Step(st)
		truth += st.NewPairs
		if f.Metrics().Created > truth {
			t.Fatalf("t=%d: created %d > truth %d", st.T, f.Metrics().Created, truth)
		}
	}
	// And with multiplicity 1 and omega 1, nearly everything is created.
	if c := f.Metrics().Created; float64(c) < 0.8*float64(truth) {
		t.Errorf("created %d of %d logical pairs; too much loss for omega=1", c, truth)
	}
}

// TestTimerLeakageSchedule: the servers observe DP-sized fetches only at
// multiples of T — exactly the support of the Mtimer mechanism in Thm. 7.
func TestTimerLeakageSchedule(t *testing.T) {
	wl := workload.TPCDS(200, 13)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 13)
	cfg.T = 10
	cfg.FlushEvery = 0
	cfg.PruneTo = 0
	f, _ := NewTimerEngine(cfg, wl)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	for _, ev := range f.Runtime().S0.Transcript.Events {
		if ev.Kind == mpc.EvFetchObserved && ev.Time%10 != 0 {
			t.Fatalf("fetch observed at t=%d, not a multiple of T=10", ev.Time)
		}
	}
	fetches := f.Runtime().S0.Transcript.SizesOf(mpc.EvFetchObserved)
	if len(fetches) != 19 { // t = 10, 20, ..., 190
		t.Errorf("observed %d fetches, want 19", len(fetches))
	}
}

// TestBatchSizesDataIndependent: the padded Transform batch sizes the
// servers observe must be identical across two workloads with the same
// configuration but different data — the exhaustive-padding guarantee.
func TestBatchSizesDataIndependent(t *testing.T) {
	mkSizes := func(seed int64) []int {
		wl := workload.TPCDS(150, seed)
		tr := mustTrace(t, wl)
		cfg := DefaultConfig(wl, 99) // same protocol seed: same noise draws
		f, _ := NewTimerEngine(cfg, wl)
		for _, st := range tr.Steps {
			f.Step(st)
		}
		return f.Runtime().S1.Transcript.SizesOf(mpc.EvBatchObserved)
	}
	a, b := mkSizes(1), mkSizes(2)
	if len(a) != len(b) {
		t.Fatalf("different batch counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch %d: size %d vs %d differ across datasets", i, a[i], b[i])
		}
	}
}

// TestFetchSizesAreNoisy: fetch sizes must not equal the true per-interval
// cardinalities systematically (they carry Laplace noise).
func TestFetchSizesAreNoisy(t *testing.T) {
	wl := workload.TPCDS(300, 17)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 17)
	cfg.T = 10
	f, _ := NewTimerEngine(cfg, wl)
	truthPerInterval := make(map[int]int)
	acc := 0
	for _, st := range tr.Steps {
		f.Step(st)
		acc += st.NewPairs
		if st.T%10 == 0 && st.T > 0 {
			truthPerInterval[st.T] = acc
			acc = 0
		}
	}
	exact := 0
	total := 0
	for _, ev := range f.Runtime().S0.Transcript.Events {
		if ev.Kind != mpc.EvFetchObserved {
			continue
		}
		total++
		if want, ok := truthPerInterval[ev.Time]; ok && ev.Size == want {
			exact++
		}
	}
	if total == 0 {
		t.Fatal("no fetches observed")
	}
	if exact == total {
		t.Error("every fetch equals the true cardinality: noise missing")
	}
}

// TestBudgetLifetimeContribution: no record contributes more than b view
// entries over its lifetime (KI-3).
func TestBudgetLifetimeContribution(t *testing.T) {
	wl := workload.CPDB(250, 19)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 19)
	cfg.FlushEvery = 0
	cfg.PruneTo = 0 // keep everything so we can count contributions
	f, _ := NewTimerEngine(cfg, wl)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	contrib := make(map[int64]int)
	for _, b := range []*oblivious.Buffer{f.View().Buffer(), f.Cache().Buffer()} {
		for i := 0; i < b.Len(); i++ {
			if b.IsReal(i) {
				contrib[b.LeftID(i)]++
			}
		}
	}
	for id, c := range contrib {
		if c > cfg.Budget {
			t.Fatalf("record %d contributed %d entries, budget %d", id, c, cfg.Budget)
		}
	}
}

// TestWindowBoundBudgetsRetire: in a window-bound deployment (records leave
// the temporal join window long before their contribution budget runs out)
// a record dropped from the active window must give up its budget entry, so
// the budget tables hold exactly the active window instead of growing by
// every record ever uploaded. Counts must match a run whose trackers enforce
// no budget, since here the budget never binds.
func TestWindowBoundBudgetsRetire(t *testing.T) {
	wl := workload.TPCDS(2000, 43)
	wl.Within, wl.MaxLag = 2, 2
	tr := mustTrace(t, wl)

	cfg := DefaultConfig(wl, 43)
	f, err := NewTimerEngine(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, err := NewTimerEngine(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	unlimited.leftBudget, unlimited.rightBudget = NewBudgetTracker(0), NewBudgetTracker(0)
	var atFirst int
	for _, st := range tr.Steps {
		f.Step(st)
		unlimited.Step(st)
		if got, want := f.view.Real(), unlimited.view.Real(); got != want {
			t.Fatalf("step %d: view holds %d real entries, unlimited-budget run %d", st.T, got, want)
		}
		if st.T != 999 && st.T != 1999 {
			continue
		}
		active := f.leftBudget.Active() + f.rightBudget.Active()
		if window := len(f.activeLeft) + len(f.activeRight); active != window {
			t.Fatalf("step %d: %d records hold budget, %d are in the active window", st.T, active, window)
		}
		if st.T == 999 {
			atFirst = active
		} else if bound := atFirst + wl.MaxLeft + wl.MaxRight; active > bound {
			t.Fatalf("budget table grew from %d (step 999) to %d (step 1999)", atFirst, active)
		}
	}
	if f.created != unlimited.created {
		t.Fatalf("created pairs diverged: %d vs unlimited %d", f.created, unlimited.created)
	}
}

func TestDeterministicRuns(t *testing.T) {
	wl := workload.TPCDS(150, 23)
	tr := mustTrace(t, wl)
	results := func() []float64 {
		f, _ := NewTimerEngine(DefaultConfig(wl, 23), wl)
		return run(t, f, tr)
	}
	a, b := results(), results()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: nondeterministic error %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEPBaselineExact(t *testing.T) {
	wl := workload.TPCDS(300, 29)
	tr := mustTrace(t, wl)
	e, err := NewEPEngine(DefaultConfig(wl, 29), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, e, tr)
	// EP has no DP noise and no truncation; only upload latency can defer a
	// pair by a step or two, so the error stays tiny.
	if avg := mean(errs); avg > 3 {
		t.Errorf("EP avg error %v, want about 0", avg)
	}
	// The EP view is exhaustively padded: far more slots than real entries.
	m := e.Metrics()
	if m.ViewLen < 5*m.ViewReal {
		t.Errorf("EP view %d slots for %d real entries: padding missing", m.ViewLen, m.ViewReal)
	}
}

func TestOTMBaselineFrozen(t *testing.T) {
	wl := workload.TPCDS(300, 31)
	tr := mustTrace(t, wl)
	e, err := NewOTMEngine(DefaultConfig(wl, 31), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, e, tr)
	m := e.Metrics()
	if m.Updates != 1 {
		t.Errorf("OTM updates = %d, want exactly 1", m.Updates)
	}
	// Error grows toward the total.
	if errs[len(errs)-1] < 0.8*float64(tr.TotalPairs) {
		t.Errorf("OTM final error %v, want near total %d", errs[len(errs)-1], tr.TotalPairs)
	}
	// But queries are nearly free.
	if m.AvgQuerySecs() > 0.01 {
		t.Errorf("OTM QET %v, want tiny", m.AvgQuerySecs())
	}
}

func TestNMBaselineExactAndSlow(t *testing.T) {
	wl := workload.TPCDS(300, 37)
	tr := mustTrace(t, wl)
	nm, err := NewNMEngine(DefaultConfig(wl, 37), wl)
	if err != nil {
		t.Fatal(err)
	}
	errs := run(t, nm, tr)
	if mean(errs) != 0 {
		t.Errorf("NM error %v, want 0", mean(errs))
	}
	// NM QET grows with history; final queries dominate.
	m := nm.Metrics()
	timer, _ := NewTimerEngine(DefaultConfig(wl, 37), wl)
	terrs := run(t, timer, tr)
	_ = terrs
	if m.AvgQuerySecs() < 100*timer.Metrics().AvgQuerySecs() {
		t.Errorf("NM QET %v not dramatically above view-based %v",
			m.AvgQuerySecs(), timer.Metrics().AvgQuerySecs())
	}
}

func TestEngineNames(t *testing.T) {
	wl := workload.TPCDS(50, 1)
	cfg := DefaultConfig(wl, 1)
	f, _ := NewTimerEngine(cfg, wl)
	if f.Name() != "DP-Timer" {
		t.Errorf("timer name %q", f.Name())
	}
	a, _ := NewANTEngine(cfg, wl)
	if a.Name() != "DP-ANT" {
		t.Errorf("ant name %q", a.Name())
	}
	ep, _ := NewEPEngine(cfg, wl)
	if ep.Name() != "EP" {
		t.Errorf("ep name %q", ep.Name())
	}
	otm, _ := NewOTMEngine(cfg, wl)
	if otm.Name() != "OTM" {
		t.Errorf("otm name %q", otm.Name())
	}
	nm, _ := NewNMEngine(cfg, wl)
	if nm.Name() != "NM" {
		t.Errorf("nm name %q", nm.Name())
	}
}

func TestBudgetTracker(t *testing.T) {
	bt := NewBudgetTracker(5)
	bt.Register(1)
	if bt.Remaining(1) != 5 {
		t.Errorf("remaining = %d", bt.Remaining(1))
	}
	if !bt.Consume(1, 2) {
		t.Error("record retired too early")
	}
	if bt.Remaining(1) != 3 {
		t.Errorf("remaining after consume = %d", bt.Remaining(1))
	}
	if bt.Consume(1, 3) {
		t.Error("record should retire at zero")
	}
	if bt.Consume(1, 1) {
		t.Error("retired record still consumable")
	}
	if bt.Active() != 0 {
		t.Errorf("active = %d", bt.Active())
	}
	// Re-registering does not refresh an exhausted record's budget map entry
	// count, but registering a new record does.
	bt.Register(2)
	bt.Register(2)
	if bt.Active() != 1 {
		t.Errorf("active after double-register = %d", bt.Active())
	}
}

func TestBudgetTrackerUnlimited(t *testing.T) {
	bt := NewBudgetTracker(0)
	if !bt.Unlimited() {
		t.Error("b=0 should be unlimited")
	}
	bt.Register(1)
	for i := 0; i < 100; i++ {
		if !bt.Consume(1, 10) {
			t.Fatal("unlimited tracker retired a record")
		}
	}
	if bt.Remaining(1) <= 0 {
		t.Error("unlimited remaining should be large")
	}
}

func TestPruneKeepsErrorBounded(t *testing.T) {
	// With PruneTo well above the Theorem-4 bound, pruning should lose no
	// (or almost no) real tuples.
	wl := workload.TPCDS(400, 41)
	tr := mustTrace(t, wl)
	cfg := DefaultConfig(wl, 41)
	f, _ := NewTimerEngine(cfg, wl)
	for _, st := range tr.Steps {
		f.Step(st)
	}
	m := f.Metrics()
	if m.LostReal > tr.TotalPairs/20 {
		t.Errorf("prune lost %d of %d real tuples", m.LostReal, tr.TotalPairs)
	}
	// And the cache stayed bounded.
	if m.CacheMax > 10*cfg.PruneTo {
		t.Errorf("cache peaked at %d despite prune bound %d", m.CacheMax, cfg.PruneTo)
	}
}

func TestTimerVsANTSparseBurst(t *testing.T) {
	// Observation 5: Timer is more accurate on sparse data, ANT on burst.
	seed := int64(43)
	avgErr := func(wl workload.Config, ant bool) float64 {
		tr := mustTrace(t, wl)
		cfg := DefaultConfig(wl, seed)
		cfg.T = 10
		var e Engine
		if ant {
			e, _ = NewANTEngine(cfg, wl)
		} else {
			e, _ = NewTimerEngine(cfg, wl)
		}
		return mean(run(t, e, tr))
	}
	sparse := workload.Sparse(workload.TPCDS(600, seed))
	if timerErr, antErr := avgErr(sparse, false), avgErr(sparse, true); timerErr > antErr*1.5 {
		t.Errorf("sparse: timer err %v should not be far above ant err %v", timerErr, antErr)
	}
	burst := workload.Burst(workload.TPCDS(600, seed))
	if timerErr, antErr := avgErr(burst, false), avgErr(burst, true); antErr > timerErr*1.5 {
		t.Errorf("burst: ant err %v should not be far above timer err %v", antErr, timerErr)
	}
}

func BenchmarkTimerStepTPCDS(b *testing.B) {
	wl := workload.TPCDS(200, 99)
	tr, _ := workload.Generate(wl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := NewTimerEngine(DefaultConfig(wl, 99), wl)
		for _, st := range tr.Steps {
			f.Step(st)
		}
	}
}
