package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspectron"
)

// --- scorer panics ------------------------------------------------------

// TestScorerPanicsOpenWorkerBreaker drives a scorer that panics on every
// sample: each sample still yields one error verdict, the panics count
// against the worker's breaker, and the breaker opening fails the episode.
func TestScorerPanicsOpenWorkerBreaker(t *testing.T) {
	det, _ := testModels(t)
	var buf bytes.Buffer
	s, err := New(Config{
		detector:         det,
		Workloads:        []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:         60_000,
		backoff:          fastBackoff(),
		breakerThreshold: 2,
		breakerCooldown:  time.Hour,
		VerdictLog:       &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.scoreHook = func() { panic("injected scorer fault") }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	deadline := time.After(time.Minute)
	for s.Health().Workers[0].Failures == 0 {
		select {
		case <-deadline:
			t.Fatalf("no episode failed: %+v", s.Health().Workers[0])
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	h := s.Health().Workers[0]
	if h.Breaker != "open" || h.Failures != 1 || h.Episodes != 0 || h.LastErr != errScorerBreaker.Error() {
		t.Fatalf("worker health = %+v, want an open breaker after one failed episode ending in %q", h, errScorerBreaker)
	}
	// Two samples were admitted before the breaker opened, one error
	// verdict each.
	sc := NewVerdictScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for rec, ok := sc.Next(); ok; rec, ok = sc.Next() {
		n++
		if rec.Mode != "error" || !strings.Contains(rec.Error, "injected scorer fault") || rec.Trace == "" {
			t.Fatalf("record %+v, want a traced error verdict", rec)
		}
	}
	if got := s.sessionEnqueued(); n != 2 || got != 2 {
		t.Fatalf("%d records for %d admitted samples, want 2 and 2", n, got)
	}
}

// --- verdict log error surfacing -----------------------------------------

// failWriter errors after limit bytes — the disk-full/closed-pipe stand-in.
type failWriter struct {
	n     int
	limit int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errors.New("sink failed")
	}
	w.n += len(p)
	return len(p), nil
}

func TestVerdictLogSurfacesWriteErrors(t *testing.T) {
	l := newVerdictLog(&failWriter{limit: 64})
	// Enough records to overflow the bufio buffer and hit the sink error.
	for i := 0; i < 100; i++ {
		l.record(VerdictRecord{Worker: strings.Repeat("w", 64), Sample: i})
	}
	if l.err() == nil {
		t.Fatalf("sticky error not captured after sink failure")
	}
	if err := l.flush(); err == nil {
		t.Fatalf("flush swallowed the write error")
	}
	// The error was reported once; a subsequent flush of the (still broken)
	// buffer may fail again on its own, but the sticky slot was cleared.
	if l.err() != nil {
		t.Fatalf("sticky error not cleared after being reported")
	}
}

// --- watcher backoff -----------------------------------------------------

func TestWatcherBacksOffOnPersistentFailure(t *testing.T) {
	det, _ := testModels(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DetectorPath: path,
		Workloads:    []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		backoff:      fastBackoff(),
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := s.watch

	// A corrupt rewrite fails to load: the tick rolls back AND schedules a
	// backoff window.
	time.Sleep(10 * time.Millisecond)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	w.tick()
	w.mu.Lock()
	streak, next := w.failStreak, w.nextTry
	w.mu.Unlock()
	if streak != 1 || next.IsZero() {
		t.Fatalf("after corrupt reload: failStreak=%d nextTry=%v, want a backoff window", streak, next)
	}
	// Ticks inside the window are skipped: the streak must not grow.
	w.tick()
	w.tick()
	w.mu.Lock()
	streak = w.failStreak
	w.mu.Unlock()
	if streak != 1 {
		t.Fatalf("backoff window did not suppress ticks: failStreak=%d", streak)
	}
	// Deleting the file makes stats fail too: forced polls bypass the window
	// and each failure deepens the streak.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	s.pollNow()
	s.pollNow()
	w.mu.Lock()
	streak = w.failStreak
	w.mu.Unlock()
	if streak != 3 {
		t.Fatalf("stat failures not counted through forced polls: failStreak=%d, want 3", streak)
	}
	// A good write recovers: the streak clears and the reload lands.
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s.pollNow()
	w.mu.Lock()
	streak, next = w.failStreak, w.nextTry
	w.mu.Unlock()
	if streak != 0 || !next.IsZero() {
		t.Fatalf("recovery did not clear the backoff: failStreak=%d nextTry=%v", streak, next)
	}
}

// --- blackout end to end -------------------------------------------------

// TestServiceBlackoutDegradesToThreshold drives total counter blackout
// (dropout 1.0 ⇒ coverage 0 on every sample) through the whole supervisor:
// the worker's ladder must bottom out on the threshold rung, verdicts must
// keep flowing (finite scores, never NaN), and /healthz must call the
// service degraded.
func TestServiceBlackoutDegradesToThreshold(t *testing.T) {
	det, cls := testModels(t)
	var buf bytes.Buffer
	var threshold, total atomic.Int64
	s, err := New(Config{
		detector:    det,
		classifier:  cls,
		Workloads:   []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:    60_000,
		MaxEpisodes: 2,
		backoff:     fastBackoff(),
		VerdictLog:  &buf,
		faults:      &perspectron.FaultConfig{Seed: 5, Dropout: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.onVerdict = func(rec VerdictRecord) {
		total.Add(1)
		if rec.Mode == "threshold" {
			threshold.Add(1)
		}
		if rec.Coverage != 0 {
			t.Errorf("blackout sample has coverage %v", rec.Coverage)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	if total.Load() == 0 {
		t.Fatalf("blackout produced no verdicts")
	}
	if threshold.Load() == 0 {
		t.Fatalf("coverage 0 never reached the threshold rung (%d verdicts)", total.Load())
	}
	h := s.Health()
	if h.Workers[0].Mode != "threshold" {
		t.Fatalf("worker mode = %s after blackout, want threshold", h.Workers[0].Mode)
	}
	if h.Workers[0].Coverage != 0 {
		t.Fatalf("smoothed coverage = %v after blackout, want 0", h.Workers[0].Coverage)
	}
	if h.Status != "degraded" && h.Status != "draining" {
		t.Fatalf("status = %q, want degraded", h.Status)
	}
	// Every logged score must be finite: the packed kernel's renormalized
	// margin degrades to the bias sign, never NaN.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, "NaN") {
			t.Fatalf("non-finite score leaked into the verdict log: %s", line)
		}
	}
}
