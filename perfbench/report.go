package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// report accumulates one run's metrics, operation counts, check failures
// and human-readable lines.
type report struct {
	attempted, failed int64
	values            map[string]metric
	notes             []string
	failures          []string
}

func newReport() *report { return &report{values: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.values[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; a run with any failed check reports
// correct=false and no numbers.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) checkErrors() []error {
	var errs []error
	for _, f := range r.failures {
		errs = append(errs, fmt.Errorf("check failed: %s", f))
	}
	return errs
}

// fill copies the metrics BENCHMARK.json lists for this mode into dst.
// Every listed metric must have been measured with the listed unit, except
// that a per-layer metric whose layer is not on this workload's path reads
// 0 (the workload never enters that layer).
func (r *report) fill(dst map[string]metric, want map[string]string, perLayer bool) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for n := range r.values {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %s is measured but BENCHMARK.json does not list it", n)
		}
	}
	var missing []string
	for _, n := range names {
		m, ok := r.values[n]
		switch {
		case !ok && perLayer:
			m = metric{Value: 0, Unit: want[n]}
		case !ok:
			missing = append(missing, n)
			continue
		case m.Unit != want[n]:
			return fmt.Errorf("metric %s measured in %s but BENCHMARK.json says %s", n, m.Unit, want[n])
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		dst[n] = m
	}
	if len(missing) > 0 {
		return fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.values[n]
		fmt.Printf("# %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Println("# CHECK FAILED:", f)
	}
	fmt.Printf("# attempted=%d failed=%d\n", r.attempted, r.failed)
}
