package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"incshrink/internal/obs"
	"incshrink/internal/serve"
)

// defaultRing is cmd/incshrink-server's -trace-buffer default.
const defaultRing = 4096

// server is one boot of the serving stack, wired the way
// cmd/incshrink-server wires it by default (its flag defaults: mailbox 16,
// high water = mailbox, ingest batch 8, 512-step batches, 16 shards,
// GOMAXPROCS ingest workers), with the metrics registry and span ring
// attached and the JSON access log going to a discarded sink. dataDir is
// set so View.Checkpoint can write; periodic checkpointing stays off, as
// it is without -data.
type server struct {
	metrics *obs.Registry
	traces  *obs.TraceLog
	reg     *serve.Registry
}

func boot(dataDir string, ring int) *server {
	metrics := obs.NewRegistry()
	traces := obs.NewTraceLog(ring)
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	reg := serve.NewRegistry(serve.Config{
		MailboxDepth:  16,
		IngestBatch:   8,
		MaxBatchSteps: 512,
		Shards:        16,
		DataDir:       dataDir,
		Metrics:       metrics,
		Traces:        traces,
		Logger:        logger,
	})
	return &server{metrics: metrics, traces: traces, reg: reg}
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.reg.Close(ctx)
}

// scrape is one parsed /metrics exposition: series key (name plus label
// set, exactly as rendered) to value. It is read from the same
// WritePrometheus the ops endpoint serves, so the benchmark and /metrics
// cannot disagree.
type scrape map[string]float64

func (s *server) scrape() (scrape, error) {
	var b bytes.Buffer
	if err := s.metrics.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(&b)
}

func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// series renders a series key the way obs renders it: name{k="v",...}.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (s scrape) get(name string, labels ...string) float64 { return s[series(name, labels...)] }

// phase returns one view's core phase histogram (sum in seconds, count).
func (s scrape) phase(view, phase string) (sum, count float64) {
	return s.get("incshrink_core_phase_seconds_sum", "view", view, "phase", phase),
		s.get("incshrink_core_phase_seconds_count", "view", view, "phase", phase)
}
