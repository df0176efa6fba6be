GO ?= go

.PHONY: check fmt vet build test lint race bench bench-core bench-smoke bench-batch bench-serve bench-diff obs-smoke recover-smoke wire-smoke fuzz-smoke serve loc

# check is what CI runs: formatting, static checks, build, tests, the
# observability smoke (boot the production wiring, scrape /metrics, assert
# every layer's families), and the two-process wire smoke (real TLS
# sockets, byte-identical to loopback, measured wire cost vs prediction).
check: lint build test obs-smoke wire-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# lint is the full static-analysis gate (CI runs this): formatting, go vet,
# and the incshrink-lint analyzers — detclock, rngdraw, maporder,
# poolsteal, oblivtaint, goleak, atomicmix (see internal/analysis and
# DESIGN.md §10). The gate runs with -tests (test files are policed too)
# and -unusedallow (a stale escape hatch is a finding). When
# staticcheck/govulncheck are on PATH they run too; CI installs them at
# pinned versions, offline checkouts just skip them. Intentional violations
# are annotated in source as `//lint:allow <analyzer> <reason>` — the
# reason is mandatory, an allow without one is itself a finding.
#
# bin/incshrink-lint is a real file target so CI can restore it from a
# cache keyed on its sources and skip the rebuild (the cache step touches
# the binary to keep it newer than the checkout).
LINT_SRC := $(shell find cmd/incshrink-lint internal/analysis -name '*.go' -not -path '*/testdata/*' 2>/dev/null)

bin/incshrink-lint: $(LINT_SRC) go.mod
	$(GO) build -o $@ ./cmd/incshrink-lint

lint: fmt vet bin/incshrink-lint
	$(GO) vet -vettool=$(abspath bin/incshrink-lint) -tests -unusedallow ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

test:
	$(GO) test ./...

# race exercises the concurrent sweep engine, the serving subsystem, the
# engines they fan out, and the layer-parallel oblivious sort (the
# workers=1-vs-N determinism tests under -race are the proof that the
# concurrent layer swaps are race-free).
race:
	$(GO) test -race ./internal/runner ./internal/sim ./internal/serve
	$(GO) test -race ./internal/oblivious ./internal/core
	$(GO) test -race -run TestDeterministicAcrossWorkerCounts ./internal/experiments

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-core regenerates the data-plane microbenchmark report
# (BENCH_core.json): Advance/Count/CountWhere ns/op and allocs/op at the
# paper-default deployment, with the pre-refactor baseline for comparison.
bench-core:
	$(GO) run ./cmd/incshrink-bench -exp core

# bench-smoke compiles and runs every data-plane benchmark once — the
# pooled-operator and GMW gate benchmarks, the root-package
# Advance/Count/CountWhere benchmarks behind BENCH_core.json, and the
# operator ablations (truncated joins, Batcher vs stdlib sort) — so none of
# them can bit-rot (CI runs this).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/oblivious ./internal/securearray ./internal/gmw
	$(GO) test -run XXX -bench 'BenchmarkAdvance|BenchmarkCount|BenchmarkAblation' -benchtime 1x .

# bench-batch is the batched-ingestion smoke (CI runs this): a short serve
# benchmark comparing batch=1 against batch=8 on the Go-API and HTTP ingest
# paths, written to BENCH_serve.json. The run itself asserts the
# batch-vs-per-step equivalence (identical per-view counts at both batch
# sizes); the throughput ratios are informational at smoke scale — regenerate
# the committed report with bench-serve.
bench-batch:
	$(GO) run ./cmd/incshrink-bench -exp serve -views 4 -steps 60 -batch 8

# bench-serve regenerates the committed serving benchmark report
# (BENCH_serve.json) at full scale (the long horizon keeps the fast
# ingest-bound and HTTP arms out of measurement noise).
bench-serve:
	$(GO) run ./cmd/incshrink-bench -exp serve -views 8 -steps 2000 -batch 8

# bench-diff gates data-plane performance against the committed baseline:
# regenerate a fresh core report and diff it against BENCH_baseline.json —
# any directional metric (ns/op, allocs/op, speedup) regressing past the
# threshold fails (CI runs this with a looser threshold to absorb shared-
# runner noise). To refresh the baseline after an intentional performance
# change, run `make bench-core` on a quiet machine and copy the result:
# `cp BENCH_core.json BENCH_baseline.json` (see README).
# Usage: make bench-diff [OLD=old.json NEW=new.json] diffs any two existing
# reports without running anything.
BENCH_DIFF_THRESHOLD ?= 0.25
bench-diff:
ifdef OLD
	$(GO) run ./cmd/incshrink-bench -compare -threshold $(BENCH_DIFF_THRESHOLD) $(OLD) $(NEW)
else
	$(GO) run ./cmd/incshrink-bench -exp core -json BENCH_core.new.json
	$(GO) run ./cmd/incshrink-bench -compare -threshold $(BENCH_DIFF_THRESHOLD) BENCH_baseline.json BENCH_core.new.json
	@rm -f BENCH_core.new.json
endif

# obs-smoke boots the full production observability wiring in-process —
# metrics registry, trace ring, slog access logs, ops mux — drives a tenant
# session, and asserts the /metrics scrape contains the serve, core and MPC
# families, /debug/traces holds the session's spans, and pprof answers only
# on the ops listener (CI runs this). The goldens-with-obs pin
# (TestObservedGoldensIdentical) runs with the normal test suite.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsSmoke' ./cmd/incshrink-server

# recover-smoke proves crash recovery end to end (CI runs this): snapshot a
# deployment mid-run, restore it, and verify counts/stats stay identical to
# an uninterrupted run — through the public API and through the serving
# layer's checkpoint/restore-on-boot path. The exhaustive byte-identical
# matrix (goldens at k in {1,37,60,119}) runs with the normal test suite as
# internal/experiments TestCrashRecoveryReproducesGoldens.
recover-smoke:
	$(GO) test -count=1 -run 'TestRecoverSmoke' .
	$(GO) test -count=1 -run 'TestRegistryCheckpointRestore|TestPeriodicCheckpointing' ./internal/serve

# wire-smoke proves the transport stack end to end (CI runs this): build
# cmd/incshrink-party, spawn two party processes over localhost TLS with
# self-signed certificates in a temp dir, and require (a) the networked
# session is byte-identical to the in-process loopback reference — opened
# values, transcript and snapshot digests, wire tallies — and (b) the
# measured per-party wire rounds/bytes match the mpc cost-model prediction
# within tolerance (exact in practice). The measured numbers land in
# BENCH_wire.json, diffable with `incshrink-bench -compare`.
wire-smoke:
	$(GO) build -o bin/incshrink-party ./cmd/incshrink-party
	./bin/incshrink-party -smoke -bench BENCH_wire.json

# fuzz-smoke gives each snapshot-codec fuzz target a short budget beyond
# the checked-in seed corpus (the corpus itself already runs in `test`).
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeBuffer -fuzztime 10s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzBufferRoundTrip -fuzztime 10s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzDecodeRuntime -fuzztime 10s ./internal/snapshot
	$(GO) test -run XXX -fuzz FuzzFrameDecoder -fuzztime 10s ./internal/wire

# loc reports the non-test Go line change of the working tree against a base
# commit — the net figure every CHANGES.md entry carries. Usage:
# make loc BASE=<ref>
loc:
	@if [ -z "$(BASE)" ]; then echo "usage: make loc BASE=<ref>"; exit 2; fi
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' ':!**/testdata/**' | \
		awk '{a += $$1; d += $$2} END {printf "non-test Go lines vs %s: +%d -%d net %+d\n", "$(BASE)", a, d, a - d}'

# serve runs the multi-tenant HTTP front end (see examples/server for a
# curl-able session). Add DATA=./incshrink-data for a durable server.
serve:
	$(GO) run ./cmd/incshrink-server -addr :8080 $(if $(DATA),-data $(DATA))
