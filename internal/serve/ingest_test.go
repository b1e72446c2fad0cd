package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspectron"
)

// --- ring ----------------------------------------------------------------

func TestRingSpreadsAndIsStable(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	owner := map[string]int{}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("stream-%d", i)
		sh := r.lookup(key, nil)
		if sh2 := r.lookup(key, nil); sh2 != sh {
			t.Fatalf("lookup(%q) unstable: %d then %d", key, sh, sh2)
		}
		counts[sh]++
		owner[key] = sh
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no streams out of 400: %v", sh, counts)
		}
	}
	// A rebuilt ring routes identically — placement is a pure function of
	// the key, so streams keep their shard across restarts.
	r2 := newRing(4)
	for key, sh := range owner {
		if got := r2.lookup(key, nil); got != sh {
			t.Fatalf("rebuilt ring moved %q: %d -> %d", key, sh, got)
		}
	}
}

func TestRingRoutesAroundUnhealthyShards(t *testing.T) {
	r := newRing(4)
	down := 2
	healthy := func(sh int) bool { return sh != down }
	moved := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("stream-%d", i)
		home := r.lookup(key, nil)
		got := r.lookup(key, healthy)
		if got == down {
			t.Fatalf("lookup(%q) landed on the down shard", key)
		}
		if home == down {
			moved++
		} else if got != home {
			t.Fatalf("lookup(%q) moved a stream (%d -> %d) whose home shard is healthy", key, home, got)
		}
	}
	if moved == 0 {
		t.Fatalf("no stream had its home on shard %d — test is vacuous", down)
	}
	// All shards down: items must still land somewhere (the home shard).
	if got := r.lookup("stream-1", func(int) bool { return false }); got != r.lookup("stream-1", nil) {
		t.Fatalf("all-down lookup %d != home shard", got)
	}
}

// --- shard admission control ---------------------------------------------

func testWorkerPair() (benign, attack *worker) {
	benign = newWorker(0, "benign", "benign", true, nil)
	attack = newWorker(1, "attack", "spectre_v1", false, nil)
	return
}

func item(w *worker, sample int) *ingestItem {
	return &ingestItem{w: w, sample: perspectron.RawSample{Sample: sample}, enqueuedAt: time.Now()}
}

func TestShardShedsOldestBenignFirst(t *testing.T) {
	ben, atk := testWorkerPair()
	sh := newShard(0, 3, newLadder(0.25, 0.1, 0.05, false), newBreaker(3, time.Minute))
	for i, w := range []*worker{atk, ben, atk} {
		if victim, admitted, _ := sh.enqueue(item(w, i)); victim != nil || !admitted {
			t.Fatalf("enqueue %d shed with room in the ring", i)
		}
	}
	// Full ring, attack sample incoming: the queued benign sample (not the
	// older attack sample) is the victim.
	victim, admitted, _ := sh.enqueue(item(atk, 3))
	if !admitted || victim == nil || victim.w != ben {
		t.Fatalf("victim = %+v admitted=%v, want the benign sample shed", victim, admitted)
	}
	// Now all queued samples are attack: an incoming benign sample yields.
	victim, admitted, _ = sh.enqueue(item(ben, 4))
	if admitted || victim == nil || victim.w != ben {
		t.Fatalf("incoming benign on an all-attack queue: victim=%+v admitted=%v, want self-shed", victim, admitted)
	}
	// And an incoming attack sample evicts the oldest queued one.
	victim, admitted, _ = sh.enqueue(item(atk, 5))
	if !admitted || victim == nil || victim.sample.Sample != 0 {
		t.Fatalf("incoming attack on a full queue: victim=%+v admitted=%v, want oldest (sample 0) shed", victim, admitted)
	}
	// Accounting invariant: everything that entered admission control is
	// queued or shed.
	if enq, shed, depth := sh.enqueued.Load(), sh.shed.Load(), int64(sh.depth()); enq != shed+depth {
		t.Fatalf("accounting broken: enqueued=%d shed=%d depth=%d", enq, shed, depth)
	}
	// FIFO order survived the evictions.
	batch := sh.dequeueBatch(10, nil)
	if len(batch) != 3 {
		t.Fatalf("drained %d items, want 3", len(batch))
	}
	for i := 1; i < len(batch); i++ {
		if batch[i].sample.Sample < batch[i-1].sample.Sample {
			t.Fatalf("drain out of order: %d after %d", batch[i].sample.Sample, batch[i-1].sample.Sample)
		}
	}
}

func TestShardRingBufferWraps(t *testing.T) {
	_, atk := testWorkerPair()
	sh := newShard(0, 4, newLadder(0.25, 0.1, 0.05, false), newBreaker(3, time.Minute))
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			sh.enqueue(item(atk, next))
			next++
		}
		batch := sh.dequeueBatch(2, nil)
		if len(batch) != 2 {
			t.Fatalf("round %d drained %d, want 2", round, len(batch))
		}
		batch = append(batch, sh.dequeueBatch(10, nil)...)
		for i := 1; i < len(batch); i++ {
			if batch[i].sample.Sample != batch[i-1].sample.Sample+1 {
				t.Fatalf("round %d: wrap broke FIFO: %v then %v", round,
					batch[i-1].sample.Sample, batch[i].sample.Sample)
			}
		}
	}
}

// --- load rung -----------------------------------------------------------

func TestLoadRungWalksDownUnderPressure(t *testing.T) {
	// Floors mirror LoadHigh=0.75, LoadCritical=0.9.
	l := newLadder(1-0.75, 1-0.9, 0.05, true)
	if mode, _ := l.observeLoad(0); mode != perspectron.ModeClassifier {
		t.Fatalf("idle shard mode = %s, want classifier", mode)
	}
	var mode perspectron.ServeMode
	for i := 0; i < 30; i++ {
		mode, _ = l.observeLoad(0.8) // sustained past LoadHigh
	}
	if mode != perspectron.ModeDetector {
		t.Fatalf("pressure 0.8 mode = %s, want detector", mode)
	}
	for i := 0; i < 30; i++ {
		mode, _ = l.observeLoad(0.98) // past LoadCritical
	}
	if mode != perspectron.ModeThreshold {
		t.Fatalf("pressure 0.98 mode = %s, want threshold", mode)
	}
	for i := 0; i < 60 && mode != perspectron.ModeClassifier; i++ {
		mode, _ = l.observeLoad(0) // pressure clears: climb back rung by rung
	}
	if mode != perspectron.ModeClassifier {
		t.Fatalf("idle shard never climbed back to classifier (mode=%s)", mode)
	}
}

func TestMaxMode(t *testing.T) {
	if got := maxMode(perspectron.ModeClassifier, perspectron.ModeThreshold); got != perspectron.ModeThreshold {
		t.Fatalf("maxMode(classifier, threshold) = %s", got)
	}
	if got := maxMode(perspectron.ModeDetector, perspectron.ModeClassifier); got != perspectron.ModeDetector {
		t.Fatalf("maxMode(detector, classifier) = %s", got)
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
