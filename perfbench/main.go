// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget against the program's public entry
// points (the serving API, the HTTP handler and, in the traced
// paper-default run, the two-party runtime over TLS), checks every answer,
// and prints the workload's metrics: the
// end-to-end set on an untraced run (-trace 0), the per-layer split on a
// traced run (-trace 1). The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before it
// are a human-readable report. perfbench/run.py builds and runs it; see
// perfbench/README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"incshrink/internal/oblivious"
	"incshrink/internal/runner"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line settings every workload sees.
type params struct {
	name    string
	seed    int64 // input seed, derived from -seed and the seed set
	seconds float64
	trace   bool
	dir     string // scratch directory for data dirs, certificates, checkpoints
}

// workload runs one named traffic mix and fills the report.
type workloadFunc func(p params, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-default": runPaperDefault,
	"http-ingest":   runHTTPIngest,
	"read-mix":      runReadMix,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-default, http-ingest or read-mix")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured wall-clock seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
		holdout = flag.Bool("holdout", false, "draw inputs from the held-out seed set instead of the development set")
		dir     = flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory (emptied first)")
		specs   = flag.String("spec", "BENCHMARK.json", "benchmark definition whose metric names and units the output must match")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {paper-default|http-ingest|read-mix}, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	// The two seed sets never share an input: development runs derive
	// from "dev", confirmation runs on unseen input from "holdout".
	set := "dev"
	if *holdout {
		set = "holdout"
	}
	p := params{
		name:    *name,
		seed:    runner.DeriveSeed(*seed, set),
		seconds: *seconds,
		trace:   *trace == 1,
		dir:     *dir,
	}
	res, err := execute(p, run, *specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload in a fresh scratch directory and turns its
// report into the result line. A nil result means nothing was measured; a
// result with Correct=false carries no metrics.
func execute(p params, run workloadFunc, specPath string) (*result, error) {
	want, err := loadSpec(specPath, p.trace)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)

	// The server's default: oblivious sorts use GOMAXPROCS workers.
	oblivious.SetSortWorkers(0)

	rep := newReport()
	start := time.Now()
	err = run(p, rep)
	fmt.Printf("# %s seed-derived=%d trace=%v wall=%.1fs\n", p.name, p.seed, p.trace, time.Since(start).Seconds())
	rep.print()
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if err == nil {
		err = errors.Join(rep.checkErrors()...)
	}
	if err == nil {
		err = rep.fill(res.Metrics, want, p.trace)
	}
	if err != nil {
		res.Metrics = map[string]metric{}
		return res, err
	}
	if res.Attempted < 1 {
		res.Metrics = map[string]metric{}
		return res, errors.New("no operation was attempted")
	}
	res.Correct = true
	return res, nil
}

// spec mirrors the metric lists of BENCHMARK.json.
type spec struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// loadSpec returns name -> unit for the metrics this mode must report.
func loadSpec(path string, trace bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("%s lists no metrics for this mode", path)
	}
	return want, nil
}
