package trace

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

func TestCollectCountsRetries(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		&panicProg{after: 5_000, failures: 1, attempts: &attempts},
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1, Retries: 2}
	ds := Collect(context.Background(), progs, cfg)[0]
	if ds.Retried != 1 {
		t.Errorf("Retried = %d, want 1 (one panic absorbed)", ds.Retried)
	}
	if len(ds.Dropped) != 0 {
		t.Errorf("Dropped = %v, want none", ds.Dropped)
	}
	if sum := ds.Summary(); !strings.Contains(sum, "1 runs retried, 0 dropped") {
		t.Errorf("Summary does not surface retries: %q", sum)
	}
}

func TestSummaryOmitsHealthWhenClean(t *testing.T) {
	ds := &Dataset{Interval: 10_000}
	if sum := ds.Summary(); strings.Contains(sum, "retried") {
		t.Errorf("clean Summary mentions retries: %q", sum)
	}
}

func TestCollectRecordsTelemetry(t *testing.T) {
	reg := telemetry.Get()
	counter := func(name string) uint64 { return reg.CounterValue(name) }
	hist := func(name string) uint64 { return reg.Histogram(name, telemetry.DurationBuckets).Count() }
	runSeconds := telemetry.Name("perspectron_collect_run_seconds", "workload", "panicker")
	phase := telemetry.Name(telemetry.PhaseMetric, "phase", "collect")
	runs, dropped, retries := counter("perspectron_collect_runs_total"),
		counter("perspectron_collect_runs_dropped_total"), counter("perspectron_collect_run_retries_total")
	runObs, phaseObs := hist(runSeconds), hist(phase)

	var attempts int32
	progs := []workload.Program{
		&panicProg{after: 5_000, failures: 99, attempts: &attempts}, // always drops
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1, Retries: 1}
	ds := Collect(context.Background(), progs, cfg)[0]
	if len(ds.Dropped) != 1 {
		t.Fatalf("Dropped = %v, want 1", ds.Dropped)
	}
	if got := counter("perspectron_collect_runs_total") - runs; got != 1 {
		t.Errorf("runs counter advanced by %d, want 1", got)
	}
	if got := counter("perspectron_collect_runs_dropped_total") - dropped; got != 1 {
		t.Errorf("dropped counter advanced by %d, want 1", got)
	}
	if got := counter("perspectron_collect_run_retries_total") - retries; got != 1 {
		t.Errorf("retries counter advanced by %d, want 1", got)
	}
	if got := hist(runSeconds) - runObs; got != 1 {
		t.Errorf("per-workload run-seconds observations = %d, want 1", got)
	}
	// The phase span recorded collect wall time.
	if got := hist(phase) - phaseObs; got != 1 {
		t.Errorf("collect phase observations = %d, want 1", got)
	}
	_ = atomic.LoadInt32(&attempts)
}
