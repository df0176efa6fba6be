package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"incshrink"
	"incshrink/internal/oblivious"
	"incshrink/internal/obs"
)

// nestTolerance is how far a program span may exceed the span that
// encloses it (client call >= http span >= wait + apply >= engine phases)
// before the split counts as inconsistent: clock reads on either side of a
// boundary are a few hundred nanoseconds apart, never 2% of the parent.
const nestTolerance = 0.02

// layerSplit sums, over the traced episodes, the benchmark's client spans
// and the program's own probes bound to them: the ingest.wait /
// ingest.apply / "http …" spans (by trace ID) and the
// incshrink_core_phase_seconds histograms (per view, per episode).
type layerSplit struct {
	advN                          int64
	advClient, wait, apply, httpA float64
	qN                            int64
	qClient, httpQ                float64
	transform, pad, shrink, query float64
	transformN, padN, queryN      float64
	updates                       float64
	missing                       int
}

// add folds one traced episode into the split.
func (s *layerSplit) add(r *engineRun, loads []*viewLoad, spans []obs.Span, sc scrape, rep *report) {
	type bound struct{ wait, apply, http time.Duration }
	byTrace := make(map[obs.TraceID]*bound, len(spans))
	for _, sp := range spans {
		b := byTrace[sp.Trace]
		if b == nil {
			b = &bound{}
			byTrace[sp.Trace] = b
		}
		switch {
		case sp.Name == "ingest.wait":
			b.wait += sp.Dur
		case sp.Name == "ingest.apply":
			b.apply += sp.Dur
		case strings.HasPrefix(sp.Name, "http "):
			b.http += sp.Dur
		}
	}
	for _, l := range loads {
		for _, q := range l.req {
			b := byTrace[q.id]
			if b == nil || b.apply == 0 || (r.spec.http && b.http == 0) {
				s.missing++
				continue
			}
			s.advN++
			s.advClient += q.dur.Seconds()
			s.wait += b.wait.Seconds()
			s.apply += b.apply.Seconds()
			s.httpA += b.http.Seconds()
		}
		for _, q := range l.qspan {
			s.qN++
			s.qClient += q.dur.Seconds()
			if b := byTrace[q.id]; b != nil {
				s.httpQ += b.http.Seconds()
			} else if r.spec.http {
				s.missing++
			}
		}
		sum, n := sc.phase(l.name, "transform")
		s.transform, s.transformN = s.transform+sum, s.transformN+n
		sum, n = sc.phase(l.name, "pad")
		s.pad, s.padN = s.pad+sum, s.padN+n
		sum, _ = sc.phase(l.name, "shrink")
		s.shrink += sum
		sum, n = sc.phase(l.name, "query")
		s.query, s.queryN = s.query+sum, s.queryN+n
		s.updates += float64(l.out.final.Updates - l.start.Updates)
	}
	rep.check(s.missing == 0, "%d traced calls found no program span (ring too small?)", s.missing)
}

// perLayer reports the traced run: the self-time split along the blocking
// path, the exact counts, the operator replays and the runtime costs.
func (r *engineRun) perLayer(rep *report, cacheBefore [2]int64) error {
	s := &r.split
	if s.advN == 0 {
		return fmt.Errorf("traced run recorded no advance")
	}
	us := func(sec, n float64) float64 {
		if n == 0 {
			return 0
		}
		return 1e6 * sec / n
	}
	adv := float64(s.advN)
	steps := adv
	// Self times per step along the blocking path. Everything the
	// program's probes cover is measured; the rest of the client time is
	// assigned by subtraction and is also reported as unattributed.
	wait, apply := s.wait, s.apply
	engineAdv := s.transform + s.shrink
	rep.set("serve.mailbox_wait_us", us(wait, adv), "us")
	rep.set("serve.apply_us", us(apply, adv), "us")
	rep.set("serve.apply_self_us", us(apply-engineAdv, adv), "us")
	var unattributed float64
	if r.spec.http {
		rep.set("serve.http_us", us(s.httpA-wait-apply, adv), "us")
		rep.set("serve.socket_us", us(s.advClient-s.httpA, adv), "us")
		rep.set("serve.query_http_us", us(s.httpQ-s.query, float64(s.qN)), "us")
		unattributed = (s.advClient - s.httpA) + (s.qClient - s.httpQ)
		rep.check(s.httpA <= s.advClient*(1+nestTolerance), "http spans exceed client calls")
		rep.check(wait+apply <= s.httpA*(1+nestTolerance), "wait+apply spans exceed http spans")
	} else {
		rep.set("serve.handoff_us", us(s.advClient-wait-apply, adv), "us")
		rep.set("serve.query_self_us", us(s.qClient-s.query, float64(s.qN)), "us")
		unattributed = (s.advClient - wait - apply) + (s.qClient - s.query)
		rep.check(wait+apply <= s.advClient*(1+nestTolerance), "wait+apply spans exceed client calls")
	}
	rep.check(engineAdv <= apply*(1+nestTolerance), "engine phases exceed apply spans")
	client := s.advClient + s.qClient
	rep.set("trace.client_us_per_step", us(client, steps), "us")
	rep.set("trace.unattributed_frac", unattributed/client, "ratio")
	engine := s.transform + s.shrink + s.query
	rep.set("trace.engine_frac", engine/client, "ratio")

	rep.set("core.transform_us", us(s.transform, s.transformN), "us")
	rep.set("core.pad_us", us(s.pad, s.padN), "us")
	rep.set("core.shrink_us", us(s.shrink, s.updates), "us")
	rep.set("core.query_us", us(s.query, s.queryN), "us")

	var advances, batches, rejected float64
	for _, st := range r.status {
		advances += float64(st.Serve.Advances)
		batches += float64(st.Serve.Batches)
		rejected += float64(st.Serve.Rejected)
	}
	rep.set("serve.steps_per_batch", advances/batches, "count")
	rep.set("serve.rejected", rejected, "count")

	// Exact counts, summed over one full cycle of variants (both views,
	// each variant's first episode).
	c := &r.cyc
	rep.set("core.view_slots", float64(c.final.ViewSlots), "count")
	rep.set("core.view_real", float64(c.final.ViewEntries), "count")
	rep.set("core.cache_slots", float64(c.final.CacheSlots), "count")
	rep.set("core.updates", float64(c.final.Updates), "count")
	cycSteps := float64(c.steps)
	rep.set("mpc.model_transform_s_per_step", c.model[0]/cycSteps, "model_s")
	rep.set("mpc.model_shrink_s_per_step", c.model[1]/cycSteps, "model_s")
	rep.set("mpc.model_query_s_per_query", c.model[2]/float64(c.queries), "model_s")
	rep.set("mpc.wire_rounds_per_step", c.rounds/cycSteps, "count")
	rep.set("mpc.wire_bytes_per_step", c.bytes/cycSteps, "bytes")
	rep.set("mpc.model_vs_measured", r.last.get("incshrink_mpc_predicted_vs_measured", "op", "Transform"), "ratio")

	h, m, _, _ := oblivious.CacheStats()
	if dh, dm := h-cacheBefore[0], m-cacheBefore[1]; dh+dm > 0 {
		rep.set("oblivious.netcache_hit_ratio", float64(dh)/float64(dh+dm), "ratio")
	}
	r.rt.report(rep)
	rep.set("snapshot.bytes_per_step", float64(r.cpBytes)/float64(r.cpSteps), "bytes")
	rep.set("snapshot.restore_ms", 1e3*median(r.restore), "ms")

	rp, err := replayEngine(r, rep)
	if err != nil {
		return err
	}
	rep.set("replay.transform_coverage", (rp.join+rp.compact)/(1e-6*us(s.transform, s.transformN)), "ratio")
	if s.updates > 0 {
		rep.set("replay.shrink_coverage", rp.sync/(1e-6*us(s.shrink, s.updates)), "ratio")
	}
	if s.queryN > 0 {
		rep.set("replay.query_coverage", rp.scan/(1e-6*us(s.query, s.queryN)), "ratio")
	}

	// The self-time split of one step's client time, largest first.
	type part struct {
		name string
		sec  float64
	}
	parts := []part{
		{"serve.mailbox_wait", wait},
		{"serve.apply_self", apply - engineAdv},
		{"core.transform (without pad)", s.transform - s.pad},
		{"core.pad", s.pad},
		{"core.shrink", s.shrink},
		{"core.query", s.query},
	}
	if r.spec.http {
		parts = append(parts, []part{
			{"serve.http (advance)", s.httpA - wait - apply},
			{"serve.http (query)", s.httpQ - s.query},
			{"socket (unattributed)", unattributed},
		}...)
	} else {
		parts = append(parts, []part{
			{"serve.handoff (unattributed)", s.advClient - wait - apply},
			{"serve.query_self (unattributed)", s.qClient - s.query},
		}...)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].sec > parts[j].sec })
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, " %s=%.1fus(%.0f%%)", p.name, us(p.sec, steps), 100*p.sec/client)
	}
	rep.note("self time per step, client %.1fus:%s", us(client, steps), b.String())
	rep.note("exact digest %016x (every run at this seed prints the same)", r.digest())
	return nil
}

// timeRestore measures restoring one view from its episode-end checkpoint
// with incshrink.Restore, and the checkpoint's size.
func (r *engineRun) timeRestore(dir string, rep *report) error {
	path := filepath.Join(dir, viewName(0)+".snap")
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	db, err := incshrink.Restore(f)
	d := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	rep.check(db.Stats() == r.final[0], "restored view %s stats %+v differ from the live view %+v", viewName(0), db.Stats(), r.final[0])
	r.restore = append(r.restore, d)
	r.cpBytes = fi.Size()
	r.cpSteps = db.Now()
	return nil
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
