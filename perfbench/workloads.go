package main

import "incshrink"

// runPaperDefault is the paper's deployment through the Go serving API:
// sDPTimer (T=10) at epsilon 1.5 with 32-row blocks over a 10-step join
// window, 3 fresh left rows per step, a standing Count every 5 steps.
// Engine-bound: Transform's join sort dominates every Advance, and every
// tenth step also pays the sDPTimer sync. Its traced run ends with the
// two-party transport phase (runWirePhase).
func runPaperDefault(p params, rep *report) error {
	err := runEngine(&engineSpec{
		def:         incshrink.ViewDef{Within: 10},
		opts:        incshrink.Options{Epsilon: 1.5, T: 10},
		rows:        3,
		countEvery:  5,
		warmup:      200,
		episode:     800,
		setups:      15,
		variants:    16,
		checkpoints: 3,
	}, p, rep)
	if err != nil || !p.trace {
		return err
	}
	return runWirePhase(p, rep)
}

// runHTTPIngest is the ingest-bound deployment of BENCH_serve behind a real
// loopback HTTP server: 2-row blocks over a 2-step window, so the engine's
// share of each request is small and routing, strict JSON, admission, the
// mailbox handoff and the socket dominate. GET count every 10 steps: at
// one every 50, a run's few thousand GETs left query_p99 (a median over
// blocks of 1000 calls, ten beyond each p99) with three times the
// run-to-run spread of every other timing on a quiet machine.
func runHTTPIngest(p params, rep *report) error {
	return runEngine(&engineSpec{
		def:         incshrink.ViewDef{Within: 2, Budget: 2},
		opts:        incshrink.Options{MaxLeft: 2, MaxRight: 2, T: 2},
		rows:        2,
		countEvery:  10,
		warmup:      400,
		episode:     3000,
		setups:      15,
		variants:    4,
		checkpoints: 3,
		http:        true,
	}, p, rep)
}

// runReadMix puts reads beside writes on grown sDPANT views: set-up grows
// each variant's views by 6000 steps to tens of thousands of view slots
// (each variant's growth is one set-up sample), then every timed step runs
// one Advance, two CountWhere(Q1) and one Count on it. It covers the
// per-step sDPANT Shrink path and the largest durable state.
func runReadMix(p params, rep *report) error {
	return runEngine(&engineSpec{
		def:         incshrink.ViewDef{Within: 10},
		opts:        incshrink.Options{Protocol: incshrink.SDPANT, MaxLeft: 8, MaxRight: 8},
		rows:        3,
		countEvery:  1,
		q1PerStep:   2,
		pregrow:     6000,
		episode:     2000,
		variants:    16,
		checkpoints: 2,
	}, p, rep)
}
