package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"incshrink"
	"incshrink/internal/oblivious"
	"incshrink/internal/obs"
	"incshrink/internal/runner"
	"incshrink/internal/serve"
)

// engineSpec describes one of the three engine workloads. Every view is
// driven by its own closed-loop client (one goroutine or one keep-alive
// connection), and a run is a sequence of episodes: each boots a fresh
// server, creates (or restores) the views, ingests pre-generated steps,
// queries on a fixed schedule and checkpoints. Episodes cycle through
// `variants` independent inputs and protocol seeds derived from the run
// seed. Every repeat of a variant must reproduce its outputs bit for bit,
// which is how the benchmark gates its exact counts inside one run, and
// the exact metrics are taken over one full cycle: averaging accuracy over
// several independent view histories keeps it steady across seeds.
type engineSpec struct {
	def  incshrink.ViewDef
	opts incshrink.Options
	// rows is the left rows each view uploads per step.
	rows int
	// countEvery issues the standing Count every n steps; q1PerStep adds
	// CountWhere(Q1) calls before it on every step.
	countEvery, q1PerStep int
	// pregrow is the steps ingested during set-up; episodes restore the
	// grown views from their checkpoints.
	pregrow int
	// warmup is the steps each view ingests during set-up to fill the
	// process-wide caches (comparator networks, pools).
	warmup int
	// episode is the timed steps per view per episode.
	episode int
	// setups is how many times set-up runs; setup_s is their median. With
	// pre-growth, every variant is one set-up.
	setups int
	// variants is the cycle length.
	variants int
	// checkpoints is how often each view is checkpointed at episode end
	// (more samples, a steadier median).
	checkpoints int
	// http drives the views through the HTTP API instead of the Go API.
	http bool
}

const views = 2

// countAt reports whether episode step i ends with the standing Count.
func (s *engineSpec) countAt(i int) bool { return s.countEvery > 0 && (i+1)%s.countEvery == 0 }

// queriesAt is the number of queries episode step i issues.
func (s *engineSpec) queriesAt(i int) int {
	n := s.q1PerStep
	if s.countAt(i) {
		n++
	}
	return n
}

// q1 is the paper's Q1 filter: right.time - left.time <= 10.
var q1 = incshrink.Where{Col: "right.time", Minus: "left.time", Cmp: incshrink.Le, Val: 10}

func viewName(i int) string { return fmt.Sprintf("v%d", i) }

// outcome is everything deterministic one view produced in an episode.
type outcome struct {
	answers uint64 // FNV-1a over every query answer, in order
	final   incshrink.Stats
	l1      int64 // sum of |Count - true join size| over standing queries (see drive)
	counts  int64 // standing queries
	qet     float64
	queries int64
}

// viewLoad is one view's client state for one episode.
type viewLoad struct {
	name    string
	st      stream
	from    int // first episode step within st
	cl      viewClient
	out     outcome
	adv     dist
	qry     dist
	qryQ1   dist      // the CountWhere(Q1) calls among qry
	qstep   dist      // per querying step: its queries' mean latency
	req     []reqSpan // traced: one per advance
	qspan   []reqSpan // traced: one per query
	err     error
	start   incshrink.Stats
	cpLat   []float64
	attempt int64
	failed  int64
}

// reqSpan is one client call in a traced run: its trace ID and duration.
type reqSpan struct {
	id  obs.TraceID
	dur time.Duration
}

// viewClient is how a view's closed-loop client reaches the server.
type viewClient interface {
	advance(trace obs.TraceID, k int) error
	count(trace obs.TraceID) (int, float64, error)
	countQ1(trace obs.TraceID) (int, float64, error)
	checkpoint() error
	stats() serve.Status
}

// apiClient calls the Go serving API directly.
type apiClient struct {
	v  *serve.View
	st *stream
}

func (c apiClient) advance(trace obs.TraceID, k int) error {
	ctx := context.Background()
	if trace != 0 {
		ctx = obs.WithTrace(ctx, trace)
	}
	_, err := c.v.Advance(ctx, c.st.steps[k].Left, c.st.steps[k].Right)
	return err
}

func (c apiClient) count(obs.TraceID) (int, float64, error) {
	n, qet := c.v.Count()
	return n, qet, nil
}

func (c apiClient) countQ1(obs.TraceID) (int, float64, error) { return c.v.CountWhere(q1) }

func (c apiClient) checkpoint() error {
	_, _, err := c.v.Checkpoint(context.Background())
	return err
}

func (c apiClient) stats() serve.Status { return c.v.Stats() }

var traceSeq atomic.Uint64

// nextTrace mints a benchmark trace ID (nonzero, 16 hex digits when
// rendered, so it also travels as an X-Trace-Id header).
func nextTrace() obs.TraceID { return obs.TraceID(1<<60 | traceSeq.Add(1)) }

// drive runs one view's episode: a closed loop of Advance and the query
// schedule, checking every answer against the generator's true join size.
func (l *viewLoad) drive(spec *engineSpec, traced bool) {
	// Restored views inherit deferred and pruned tuples from their growth,
	// and how many varies too much from seed to seed to gate: there the
	// error is that of the count's growth since the restore (the view's
	// real entries then, against the truth then).
	var truth0, answer0 int
	if l.from > 0 {
		truth0, answer0 = l.st.truth[l.from-1], l.start.ViewEntries
	}
	h := fnv.New64a()
	var b8 [8]byte
	record := func(n int) {
		for i := range b8 {
			b8[i] = byte(uint64(n) >> (8 * i))
		}
		h.Write(b8[:])
	}
	var stepQry float64 // this step's query time, seconds
	query := func(q1 bool, truth int) error {
		var id obs.TraceID
		if traced {
			id = nextTrace()
		}
		l.attempt++
		t0 := time.Now()
		var n int
		var qet float64
		var err error
		if q1 {
			n, qet, err = l.cl.countQ1(id)
		} else {
			n, qet, err = l.cl.count(id)
		}
		d := time.Since(t0)
		if err != nil {
			l.failed++
			return err
		}
		l.qry = append(l.qry, d.Seconds())
		stepQry += d.Seconds()
		if q1 {
			l.qryQ1 = append(l.qryQ1, d.Seconds())
		}
		if traced {
			l.qspan = append(l.qspan, reqSpan{id, d})
		}
		if n < 0 || n > truth {
			return fmt.Errorf("view %s: answer %d outside [0, true join size %d]", l.name, n, truth)
		}
		record(n)
		l.out.qet += qet
		l.out.queries++
		if !q1 {
			l.out.l1 += int64(abs((truth - truth0) - (n - answer0)))
			l.out.counts++
		}
		return nil
	}
	for i := 0; i < spec.episode; i++ {
		k := l.from + i
		var id obs.TraceID
		if traced {
			id = nextTrace()
		}
		l.attempt++
		t0 := time.Now()
		err := l.cl.advance(id, k)
		d := time.Since(t0)
		if err != nil {
			l.failed++
			l.err = fmt.Errorf("view %s step %d: %w", l.name, k, err)
			return
		}
		l.adv = append(l.adv, d.Seconds())
		if traced {
			l.req = append(l.req, reqSpan{id, d})
		}
		stepQry = 0
		for j := 0; j < spec.q1PerStep; j++ {
			if err := query(true, l.st.truth[k]); err != nil {
				l.err = err
				return
			}
		}
		if spec.countAt(i) {
			if err := query(false, l.st.truth[k]); err != nil {
				l.err = err
				return
			}
		}
		if n := spec.queriesAt(i); n > 0 {
			l.qstep = append(l.qstep, stepQry/float64(n))
		}
	}
	l.out.answers = h.Sum64()
}

// engineRun accumulates a run's samples across episodes.
type engineRun struct {
	spec     *engineSpec
	p        params
	streams  [][]stream        // [variant][view]
	bodies   [][][][]byte      // http: [variant][view][step] pre-encoded advance bodies
	seedDirs []string          // read-mix: each variant's grown views' checkpoints
	refs     map[int][]outcome // each variant's first outputs
	cyc      cycle             // exact metrics over one full cycle
	next     int               // next episode's position in the cycle sequence
	episodes int
	steps    int64
	wall     float64
	adv, qry dist
	qryQ1    dist
	qstep    dist
	cp       []float64
	heap     []float64 // live heap the server and its views held, per episode
	setup    []float64
	final    []incshrink.Stats
	rates    []float64       // each episode's steps/s
	start0   incshrink.Stats // view 0 at episode start

	// Traced-run accumulators.
	split   layerSplit
	rt      runtimeDelta
	restore []float64
	cpBytes int64
	cpSteps int
	last    scrape // the last traced episode's exposition
	status  []serve.Status
}

// cycle sums the deterministic outputs of the first occurrence of each
// variant.
type cycle struct {
	seen    map[int]bool
	l1      int64
	counts  int64
	qet     float64
	queries int64
	steps   int64
	model   [3]float64 // modelled transform, shrink, query seconds
	final   incshrink.Stats
	// rounds and bytes are the incshrink_mpc_wire_*_total counters.
	rounds, bytes float64
}

func (c *cycle) complete(variants int) bool { return len(c.seen) == variants }

// newEngineRun generates every variant's input once; every episode of that
// variant replays it.
func newEngineRun(spec *engineSpec, p params) *engineRun {
	r := &engineRun{spec: spec, p: p, refs: map[int][]outcome{}, cyc: cycle{seen: map[int]bool{}}}
	for v := 0; v < spec.variants; v++ {
		var sts []stream
		for i := 0; i < views; i++ {
			sts = append(sts, genStream(p.seed, r.key(v, i), spec.pregrow+spec.episode, spec.rows, spec.def.Within))
		}
		r.streams = append(r.streams, sts)
		if spec.http {
			r.bodies = append(r.bodies, encodeBodies(sts))
		}
	}
	return r
}

func (r *engineRun) key(variant, view int) string {
	return fmt.Sprintf("%s/%d/%s", r.p.name, variant, viewName(view))
}

func (r *engineRun) viewOpts(variant, view int) incshrink.Options {
	o := r.spec.opts
	o.Seed = runner.DeriveSeed(r.p.seed, r.key(variant, view)+"/protocol")
	return o
}

// host is one booted server with its views, reachable through clients.
type host struct {
	srv     *server
	clients []viewClient
	stop    func() error
}

// bootHost boots a server in dataDir and creates a variant's views, or
// restores them from dataDir.
func (r *engineRun) bootHost(dataDir string, ring int, restore bool, variant int) (*host, error) {
	srv := boot(dataDir, ring)
	h := &host{srv: srv, stop: srv.close}
	if restore {
		if _, err := srv.reg.RestoreAll(); err != nil {
			srv.close()
			return nil, err
		}
	}
	if r.spec.http {
		return r.bootHTTP(h, restore, variant)
	}
	for i := 0; i < views; i++ {
		var v *serve.View
		var err error
		if restore {
			v, err = srv.reg.Get(viewName(i))
		} else {
			v, err = srv.reg.Create(viewName(i), r.spec.def, r.viewOpts(variant, i))
		}
		if err != nil {
			h.stop()
			return nil, err
		}
		h.clients = append(h.clients, apiClient{v, &r.streams[variant][i]})
	}
	return h, nil
}

// setupOnce boots a server, creates the views and warms them up (or, with
// pre-growth, grows variant k's views and checkpoints them into its seed
// directory). It returns the set-up time: server start, view creation,
// warm-up and pre-growth.
func (r *engineRun) setupOnce(k int) (float64, error) {
	dir := filepath.Join(r.p.dir, fmt.Sprintf("setup-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	variant := 0
	if r.spec.pregrow > 0 {
		variant = k
	}
	runtime.GC()
	t0 := time.Now()
	h, err := r.bootHost(dir, defaultRing, false, variant)
	if err != nil {
		return 0, err
	}
	defer h.stop()
	var wg sync.WaitGroup
	errs := make([]error, views)
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.grow(h.clients[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0).Seconds()
	if r.spec.pregrow > 0 {
		// Keep the grown views as the episodes' starting state.
		for _, c := range h.clients {
			if err := c.checkpoint(); err != nil {
				return 0, err
			}
		}
		if err := h.stop(); err != nil {
			return 0, err
		}
		seed := filepath.Join(r.p.dir, fmt.Sprintf("seed-%d", k))
		if err := os.Rename(dir, seed); err != nil {
			return 0, err
		}
		r.seedDirs = append(r.seedDirs, seed)
	}
	return elapsed, nil
}

// grow ingests the set-up steps of one view: the warm-up steps, or the
// read-mix pre-growth in the largest batches the server admits.
func (r *engineRun) grow(c viewClient) error {
	if r.spec.pregrow == 0 {
		for i := 0; i < r.spec.warmup; i++ {
			if err := c.advance(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	ac, ok := c.(apiClient)
	if !ok {
		return errors.New("pre-growth needs the Go API")
	}
	for lo := 0; lo < r.spec.pregrow; lo += 512 {
		hi := min(lo+512, r.spec.pregrow)
		if _, err := ac.v.AdvanceBatch(context.Background(), ac.st.steps[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// episode runs one episode and folds its samples into the run. traced
// binds the program's spans to the benchmark's client calls.
func (r *engineRun) episode(traced bool, rep *report) error {
	variant := r.next % r.spec.variants
	r.next++
	dir := filepath.Join(r.p.dir, fmt.Sprintf("ep-%d", r.episodes))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	restore := r.spec.pregrow > 0
	if restore {
		if err := os.CopyFS(dir, os.DirFS(r.seedDirs[variant])); err != nil {
			return err
		}
	}
	heapBefore := liveHeapMB()
	ring := defaultRing
	if traced {
		// The ring holds every span of the episode: http, wait and apply
		// per advance, http per query.
		ring = views*r.spec.episode*(3+r.spec.q1PerStep+1) + 64
	}
	h, err := r.bootHost(dir, ring, restore, variant)
	if err != nil {
		return err
	}
	defer h.stop()

	loads := make([]*viewLoad, views)
	for i := range loads {
		loads[i] = &viewLoad{name: viewName(i), st: r.streams[variant][i], from: r.spec.pregrow, cl: h.clients[i], start: h.clients[i].stats().DB}
		loads[i].adv = make(dist, 0, r.spec.episode)
	}
	runtime.GC()
	before := readRuntime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, l := range loads {
		wg.Add(1)
		go func(l *viewLoad) {
			defer wg.Done()
			l.drive(r.spec, traced)
		}(l)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	after := readRuntime()

	for _, l := range loads {
		rep.attempted += l.attempt
		rep.failed += l.failed
		if l.err != nil {
			return l.err
		}
	}
	// Checkpoint at episode end: encode, write and fsync the way the
	// server does it.
	for k := 0; k < r.spec.checkpoints; k++ {
		for _, l := range loads {
			rep.attempted++
			t := time.Now()
			if err := l.cl.checkpoint(); err != nil {
				rep.failed++
				return err
			}
			l.cpLat = append(l.cpLat, time.Since(t).Seconds())
		}
	}
	sc, err := h.srv.scrape()
	if err != nil {
		return err
	}
	var spans []obs.Span
	if traced {
		spans = h.srv.traces.Spans()
	}
	var status []serve.Status
	for _, l := range loads {
		st := l.cl.stats()
		status = append(status, st)
		l.out.final = st.DB
	}
	// What the heap gained since before the server booted is what the
	// server and its views hold.
	r.heap = append(r.heap, liveHeapMB()-heapBefore)

	// Exact outputs: every repeat of a variant must reproduce its first
	// run, and the first runs of the cycle make up the exact metrics.
	if ref, ok := r.refs[variant]; ok {
		for i, l := range loads {
			rep.check(l.out == ref[i], "view %s variant %d: episode %d outputs %+v differ from the variant's first %+v", l.name, variant, r.episodes, l.out, ref[i])
		}
	} else {
		for _, l := range loads {
			r.refs[variant] = append(r.refs[variant], l.out)
		}
	}
	if !r.cyc.seen[variant] {
		r.cyc.seen[variant] = true
		for _, l := range loads {
			c := &r.cyc
			c.l1 += l.out.l1
			c.counts += l.out.counts
			c.qet += l.out.qet
			c.queries += l.out.queries
			c.steps += int64(r.spec.episode)
			c.model[0] += l.out.final.TransformSeconds - l.start.TransformSeconds
			c.model[1] += l.out.final.ShrinkSeconds - l.start.ShrinkSeconds
			c.model[2] += l.out.final.QuerySeconds - l.start.QuerySeconds
			c.final.ViewSlots += l.out.final.ViewSlots
			c.final.ViewEntries += l.out.final.ViewEntries
			c.final.CacheSlots += l.out.final.CacheSlots
			c.final.Updates += l.out.final.Updates - l.start.Updates
		}
		for k, v := range sc {
			switch {
			case strings.HasPrefix(k, "incshrink_mpc_wire_rounds_total{"):
				r.cyc.rounds += v
			case strings.HasPrefix(k, "incshrink_mpc_wire_bytes_total{"):
				r.cyc.bytes += v
			}
		}
	}

	r.episodes++
	r.start0 = loads[0].start
	r.final = r.final[:0]
	for _, l := range loads {
		r.steps += int64(len(l.adv))
		r.adv = append(r.adv, l.adv...)
		r.qry = append(r.qry, l.qry...)
		r.qryQ1 = append(r.qryQ1, l.qryQ1...)
		r.qstep = append(r.qstep, l.qstep...)
		r.cp = append(r.cp, l.cpLat...)
		r.final = append(r.final, l.out.final)
	}
	r.wall += wall
	r.rates = append(r.rates, float64(views*r.spec.episode)/wall)
	if traced {
		r.split.add(r, loads, spans, sc, rep)
		r.last = sc
		r.status = status
		if err := r.timeRestore(dir, rep); err != nil {
			return err
		}
	} else {
		r.rt.add(before, after, int64(views*r.spec.episode))
	}
	return nil
}

// runEngine runs set-up, then episodes until the measured budget is spent
// and at least one full cycle of variants has run. A traced run spends the
// first half untraced (the reference for exact outputs and for the tracing
// overhead) and the second half traced, restarting the cycle so the traced
// episodes repeat untraced ones.
func runEngine(spec *engineSpec, p params, rep *report) error {
	r := newEngineRun(spec, p)
	setups := spec.setups
	if spec.pregrow > 0 {
		setups = spec.variants
	} else if p.trace {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		s, err := r.setupOnce(k)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, s)
	}
	untracedBudget := p.seconds
	if p.trace {
		untracedBudget /= 2
	}
	for r.wall < untracedBudget || !r.cyc.complete(spec.variants) {
		if err := r.episode(false, rep); err != nil {
			return err
		}
	}
	if !p.trace {
		r.endToEnd(rep)
		return nil
	}
	untraced := float64(r.steps) / r.wall
	r.wall, r.steps, r.next = 0, 0, 0
	hits, misses, _, _ := oblivious.CacheStats()
	for r.wall < p.seconds/2 {
		if err := r.episode(true, rep); err != nil {
			return err
		}
	}
	traced := float64(r.steps) / r.wall
	rep.set("trace.overhead_frac", 1-traced/untraced, "ratio")
	return r.perLayer(rep, [2]int64{hits, misses})
}

// endToEnd reports the untraced run's user-facing metrics.
func (r *engineRun) endToEnd(rep *report) {
	rep.set("setup_s", median(r.setup), "s")
	// The rate is the median over episodes and the tails the median over
	// blocks of a thousand consecutive calls, robust to bursts of outside
	// load; medians are pooled. The query median is over querying steps of
	// the step's mean query latency: where a step mixes Count and
	// CountWhere, the pooled median of the two latency modes would fall
	// between them and move with their balance, while each step's mean has
	// one mode. With one query per querying step it is the pooled median.
	rep.set("steps_per_s", median(r.rates), "1/s")
	rep.set("advance_p50_ms", 1e3*r.adv.quantile(0.5), "ms")
	rep.set("advance_p99_ms", 1e3*blockQuantile(r.adv, 0.99), "ms")
	rep.set("query_p50_ms", 1e3*r.qstep.quantile(0.5), "ms")
	rep.set("query_p99_ms", 1e3*blockQuantile(r.qry, 0.99), "ms")
	c := &r.cyc
	rep.set("count_l1_error", float64(c.l1)/float64(c.counts), "rows")
	rep.set("model_qet_ms", 1e3*c.qet/float64(c.queries), "model_ms")
	rep.set("model_mpc_s_per_step", (c.model[0]+c.model[1])/float64(c.steps), "model_s")
	rep.set("live_heap_mb", median(r.heap), "MB")
	rep.set("checkpoint_ms", 1e3*median(r.cp), "ms")
	rep.note("episodes=%d variants=%d steps/view/episode=%d setups=%.4f", r.episodes, r.spec.variants, r.spec.episode, r.setup)
	rep.note("episode steps/s %.0f", r.rates)
	rep.note("exact digest %016x (every run at this seed prints the same)", r.digest())
	rep.note("advance %s", r.adv.summary())
	rep.note("query   %s", r.qry.summary())
	if len(r.qryQ1) > 0 {
		rep.note("  of which CountWhere(Q1) %s", r.qryQ1.summary())
		rep.note("  per-step mean %s", r.qstep.summary())
	}
	rep.note("checkpoint %s", dist(r.cp).summary())
	for i, st := range r.final {
		rep.note("view %s final %+v", viewName(i), st)
	}
}

// runtimeDelta accumulates Go runtime costs over the untraced timed
// windows: allocations, CPU time, and GC CPU time.
type runtimeDelta struct {
	mallocs    uint64
	cpu, gcCPU float64
	steps      int64
}

type runtimeSample struct {
	mallocs uint64
	cpu     float64
	gcCPU   float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec) + 1e-6*float64(ru.Utime.Usec+ru.Stime.Usec)
	return runtimeSample{mallocs: ms.Mallocs, cpu: cpu, gcCPU: gcCPUSeconds()}
}

func (d *runtimeDelta) add(a, b runtimeSample, steps int64) {
	d.mallocs += b.mallocs - a.mallocs
	d.cpu += b.cpu - a.cpu
	d.gcCPU += b.gcCPU - a.gcCPU
	d.steps += steps
}

func (d *runtimeDelta) report(rep *report) {
	steps := float64(max(d.steps, 1))
	rep.set("goruntime.allocs_per_step", float64(d.mallocs)/steps, "count")
	rep.set("goruntime.cpu_ms_per_step", 1e3*d.cpu/steps, "ms")
	frac := 0.0
	if d.cpu > 0 {
		frac = d.gcCPU / d.cpu
	}
	rep.set("goruntime.gc_cpu_frac", frac, "ratio")
}

// digest hashes every variant's exact outputs, in cycle order.
func (r *engineRun) digest() uint64 {
	h := fnv.New64a()
	for v := 0; v < r.spec.variants; v++ {
		fmt.Fprintf(h, "%d:%+v;", v, r.refs[v])
	}
	return h.Sum64()
}
