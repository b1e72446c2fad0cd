package trace

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspectron/internal/isa"
	"perspectron/internal/retry"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
	"perspectron/internal/workload/benign"
)

// plainStream emits computational ops forever (or up to limit when > 0).
type plainStream struct {
	n     uint64
	limit uint64
	op    isa.Op
}

func (s *plainStream) Next() (*isa.Op, bool) {
	if s.limit > 0 && s.n >= s.limit {
		return nil, false
	}
	s.n++
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// panicProg panics after emitting `after` ops on its first `failures`
// streams, then behaves.
type panicProg struct {
	after    uint64
	failures int32
	attempts *int32
}

func (p *panicProg) Info() workload.Info {
	return workload.Info{Name: "panicker", Label: workload.Benign, Category: "test"}
}

func (p *panicProg) Stream(_ *rand.Rand) isa.Stream {
	attempt := atomic.AddInt32(p.attempts, 1)
	return &panicStream{after: p.after, panics: attempt <= p.failures}
}

type panicStream struct {
	n      uint64
	after  uint64
	panics bool
	op     isa.Op
}

func (s *panicStream) Next() (*isa.Op, bool) {
	s.n++
	if s.panics && s.n > s.after {
		panic("workload bug")
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

func TestCollectRecoversFromPanickingWorkload(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		benign.All()[0],
		&panicProg{after: 5_000, failures: 99, attempts: &attempts}, // never succeeds
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1, Retries: 2}
	ds := Collect(context.Background(), progs, cfg)[0]
	if len(ds.Samples) == 0 {
		t.Fatalf("healthy workload produced no samples alongside a panicking one")
	}
	for _, s := range ds.Samples {
		if s.Program == "panicker" {
			t.Fatalf("panicking run leaked samples into the dataset")
		}
	}
	if len(ds.Dropped) != 1 || !strings.Contains(ds.Dropped[0], "panicker#0") ||
		!strings.Contains(ds.Dropped[0], "panicked") {
		t.Fatalf("dropped record = %v, want one panicker entry", ds.Dropped)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("panicking run attempted %d times, want 1 + 2 retries", got)
	}
}

func TestCollectRetrySucceedsWithFreshSeed(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		&panicProg{after: 5_000, failures: 1, attempts: &attempts}, // first attempt only
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1, Retries: 2}
	ds := Collect(context.Background(), progs, cfg)[0]
	if len(ds.Dropped) != 0 {
		t.Fatalf("recovered run still dropped: %v", ds.Dropped)
	}
	if len(ds.Samples) == 0 {
		t.Fatalf("retried run produced no samples")
	}
	if got := atomic.LoadInt32(&attempts); got != 2 {
		t.Fatalf("attempts = %d, want 2 (panic, then success)", got)
	}
}

// TestCollectBackoffMaxAttemptsHonored: with Retries unset, a caller-supplied
// Backoff.MaxAttempts used to be unconditionally overwritten to Retries+1 = 1,
// silently disabling the caller's retries. It must govern the attempt budget.
func TestCollectBackoffMaxAttemptsHonored(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		&panicProg{after: 5_000, failures: 1, attempts: &attempts},
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1,
		Backoff: retry.Policy{Base: time.Millisecond, Max: 2 * time.Millisecond,
			Factor: 2, MaxAttempts: 3}}
	ds := Collect(context.Background(), progs, cfg)[0]
	if len(ds.Dropped) != 0 {
		t.Fatalf("run that recovered on its Backoff-granted retry was dropped: %v", ds.Dropped)
	}
	if got := atomic.LoadInt32(&attempts); got != 2 {
		t.Fatalf("attempts = %d, want 2 (panic, then Backoff-granted retry)", got)
	}

	// Explicit Retries still wins over the policy's own attempt cap.
	attempts = 0
	cfg.Retries = 2
	cfg.Backoff.MaxAttempts = 1
	ds = Collect(context.Background(), []workload.Program{
		&panicProg{after: 5_000, failures: 1, attempts: &attempts},
	}, cfg)[0]
	if len(ds.Dropped) != 0 {
		t.Fatalf("Retries-granted retry was dropped: %v", ds.Dropped)
	}

	// And the all-defaults case keeps meaning exactly one attempt.
	attempts = 0
	ds = Collect(context.Background(), []workload.Program{
		&panicProg{after: 5_000, failures: 99, attempts: &attempts},
	}, CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1})[0]
	if len(ds.Dropped) != 1 {
		t.Fatalf("dropped = %v, want the single failed attempt recorded", ds.Dropped)
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("attempts = %d, want 1 with no retries configured", got)
	}
}

// endless is a benign-looking program that never terminates on its own.
type endless struct{}

func (endless) Info() workload.Info {
	return workload.Info{Name: "endless", Label: workload.Benign, Category: "test"}
}
func (endless) Stream(_ *rand.Rand) isa.Stream { return &plainStream{} }

func TestCollectTimeoutCutsRunawayRun(t *testing.T) {
	cfg := CollectConfig{
		MaxInsts: 1 << 62, // effectively unbounded: only the timeout stops it
		Interval: 10_000,
		Seed:     1,
		Runs:     1,
		Timeout:  100 * time.Millisecond,
	}
	start := time.Now()
	ds := Collect(context.Background(), []workload.Program{endless{}}, cfg)[0]
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout did not bound the run (%v elapsed)", elapsed)
	}
	// The run was truncated, not discarded: its partial samples survive.
	if len(ds.Samples) == 0 {
		t.Fatalf("timed-out run contributed no samples")
	}
}

func TestCollectCtxCancelStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every run must be dropped
	progs := []workload.Program{benign.All()[0], benign.All()[1]}
	ds := Collect(ctx, progs, CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 2})[0]
	if len(ds.Samples) != 0 {
		t.Fatalf("cancelled collection still produced %d samples", len(ds.Samples))
	}
	if len(ds.Dropped) != 4 {
		t.Fatalf("dropped %d runs, want all 4: %v", len(ds.Dropped), ds.Dropped)
	}
}

// TestCollectRetryRecordsBackoffTelemetry pins the shared retry helper's
// accounting: a collection that retries must show up under op="collect" in
// the attempt counter and the backoff-sleep histogram.
func TestCollectRetryRecordsBackoffTelemetry(t *testing.T) {
	reg := telemetry.Get()
	attemptSeries := telemetry.Name("perspectron_retry_attempts_total", "op", "collect")
	before := reg.CounterValue(attemptSeries)

	var attempts int32
	progs := []workload.Program{&panicProg{after: 5_000, failures: 1, attempts: &attempts}}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1, Retries: 2}
	ds := Collect(context.Background(), progs, cfg)[0]
	if ds.Retried != 1 {
		t.Fatalf("Retried = %d, want 1", ds.Retried)
	}
	if got := reg.CounterValue(attemptSeries); got != before+2 {
		t.Fatalf("retry attempt counter advanced by %d, want 2", got-before)
	}
	h := reg.Histogram(telemetry.Name("perspectron_retry_backoff_seconds", "op", "collect"),
		telemetry.DurationBuckets)
	if h.Count() == 0 {
		t.Fatalf("no backoff sleep recorded")
	}
}

func TestFilterCarriesDropped(t *testing.T) {
	ds := &Dataset{Dropped: []string{"x#0: run panicked"}}
	if got := ds.Filter(func(*Sample) bool { return true }); len(got.Dropped) != 1 {
		t.Fatalf("Filter lost the Dropped record")
	}
}
