package perspectron

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSessionStreamsVerdicts(t *testing.T) {
	det := sharedDetector(t)
	ctx := context.Background()
	s, err := NewSession(ctx, det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 80_000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scorer, err := NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	n := 0
	for {
		rs, ok := s.NextRaw(ctx)
		if !ok {
			break
		}
		if rs.Sample != n {
			t.Fatalf("sample %d out of order (want %d)", rs.Sample, n)
		}
		_, f, coverage := scorer.Detect(rs)
		if coverage <= 0 || coverage > 1 {
			t.Fatalf("coverage %v out of range", coverage)
		}
		if f {
			flagged++
		}
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no verdicts")
	}
	if flagged == 0 {
		t.Fatalf("spectreV1 never flagged across %d verdicts", n)
	}
	// The streaming path and the batch Monitor agree on detection.
	rep, err := det.Monitor(AttackByName("spectreV1", "fr"), 80_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatalf("Monitor disagrees with session on detection")
	}
}

func TestSessionWithClassifier(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	ctx := context.Background()
	s, err := NewSession(ctx, det, cls, SessionConfig{
		Workload: AttackByName("flush+reload", ""),
		MaxInsts: 60_000,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scorer, err := NewRawScorer(det, cls)
	if err != nil {
		t.Fatal(err)
	}
	votes := map[string]int{}
	for {
		rs, ok := s.NextRaw(ctx)
		if !ok {
			break
		}
		class, _, _ := scorer.Classify(rs)
		if class == "" {
			t.Fatalf("classifier session produced empty class")
		}
		votes[class]++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if votes["flush_reload"] == 0 {
		t.Fatalf("flush+reload never voted flush_reload: %v", votes)
	}
}

// TestSessionsShareModelConcurrently is the thread-safety contract behind
// the serving runtime: many sessions score against ONE detector and ONE
// classifier simultaneously, each through its own RawScorer. Run under
// -race this proves scoring never writes shared model state.
func TestSessionsShareModelConcurrently(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s, err := NewSession(ctx, det, cls, SessionConfig{
				Workload: AttackByName("spectreV1", "fr"),
				MaxInsts: 40_000,
				Seed:     seed,
			})
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			scorer, err := NewRawScorer(det, cls)
			if err != nil {
				errs <- err
				return
			}
			for {
				rs, ok := s.NextRaw(ctx)
				if !ok {
					break
				}
				scorer.Detect(rs)
				scorer.Classify(rs)
			}
			errs <- s.Err()
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestModelsShareConcurrently runs the whole-run entry points — Monitor,
// MonitorWithPolicy and Classify — concurrently on one freshly loaded
// detector and classifier. Under -race this proves none of them writes
// model state on first use.
func TestModelsShareConcurrently(t *testing.T) {
	var buf bytes.Buffer
	if err := sharedDetector(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	det, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := sharedClassifier(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	cls, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := AttackByName("spectreV1", "fr")
	runs := []func() error{
		func() error { _, err := det.Monitor(w, 40_000, 1); return err },
		func() error { _, err := det.Monitor(w, 40_000, 2); return err },
		func() error {
			_, err := det.MonitorWithPolicy(w, 40_000, 3, EscalationPolicy(0.25, 0.5, MitigateFence))
			return err
		},
		func() error { _, err := cls.Classify(w, 40_000, 4); return err },
		func() error { _, err := cls.Classify(w, 40_000, 5); return err },
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- run()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionNextDeadline(t *testing.T) {
	det := sharedDetector(t)
	s, err := NewSession(context.Background(), det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 40_000,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// An already-expired per-sample deadline: NextRaw gives up immediately
	// and the ctx error distinguishes it from end-of-run.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if rs, ok := s.NextRaw(expired); ok {
		t.Fatalf("NextRaw returned sample %d under expired ctx", rs.Sample)
	}
	if expired.Err() == nil {
		t.Fatalf("expired ctx reports no error")
	}
	// The session survives a missed deadline: a live ctx still drains it.
	live, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	n := 0
	for {
		_, ok := s.NextRaw(live)
		if !ok {
			break
		}
		n++
	}
	if live.Err() != nil {
		t.Fatalf("drain hit the long deadline")
	}
	if n == 0 {
		t.Fatalf("session dead after missed deadline")
	}
}

func TestRecordCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Record(ctx, AttackByName("spectreV1", "fr"), 40_000, 5, 10_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Record returned %v, want context.Canceled", err)
	}
}

func TestServeModeString(t *testing.T) {
	cases := map[ServeMode]string{
		ModeClassifier: "classifier",
		ModeDetector:   "detector",
		ModeThreshold:  "threshold",
		ServeMode(9):   "mode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("ServeMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestNewSessionErrors(t *testing.T) {
	if _, err := NewSession(context.Background(), nil, nil, SessionConfig{Workload: BenignWorkloads()[0]}); err == nil {
		t.Fatalf("model-less session accepted")
	}
	if _, err := NewSession(context.Background(), sharedDetector(t), nil, SessionConfig{}); err == nil {
		t.Fatalf("workload-less session accepted")
	}
}
